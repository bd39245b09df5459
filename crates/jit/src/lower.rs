//! Lowering of allocated IR to x86-64 machine code.
//!
//! # Register map
//!
//! The virtual machines the allocators target (up to 25 integer + 28 float
//! registers on the Alpha-like spec) do not fit in 8 host GPRs, so the
//! virtual register file is memory-resident: each native frame holds the
//! full per-class register file plus the function's spill slots, and every
//! IR operand compiles to a fixed `[rbp + disp]` slot. Host registers have
//! fixed roles instead:
//!
//! | host | role |
//! |------|------|
//! | `rbx`         | [`crate::runtime::Env`] pointer (counters, limits, transfer file) |
//! | `r12`         | data-memory base |
//! | `r13`         | remaining fuel, for the whole run |
//! | `r14`         | data-memory size in words |
//! | `rbp`         | frame base (virtual registers + spill slots below) |
//! | `rax rcx rdx` | integer scratch lanes (div/shift-constrained) |
//! | `rdi rsi`     | helper-call arguments, `rep stosq` |
//! | `xmm0 xmm1`   | float scratch lanes |
//!
//! # Frame layout (rbp-relative, all 8-byte words)
//!
//! ```text
//! [rbp - 8*(1+i)]            integer register i
//! [rbp - 8*(ni+1+j)]         float register j
//! [rbp - 8*(ni+nf+1+s)]      spill slot s
//! ```
//!
//! The prologue zeroes the whole frame (determinism), bumps and checks the
//! call-depth counter, then copies the full per-class transfer file from
//! `Env` into the frame — that is how arguments arrive. Every `Ret`
//! publishes the full register file back to the transfer file and records
//! the statically-known integer return register, which makes the callee
//! protocol independent of what the caller expects (the caller copies out
//! only its declared return registers). Calls therefore clobber nothing the
//! VM would preserve, and preserve nothing the VM would clobber — the VM's
//! poison rules are not modelled, which is sound because results are only
//! compared on runs the VM completes without a poison fault.
//!
//! # Counter and error ABI
//!
//! The remaining fuel lives in `r13` while native code runs: the entry
//! trampoline loads it from `Env::fuel` before the entry call and stores it
//! back after. Every IR instruction compiles to a counter prelude,
//! `sub r13, 1; jb fuel_stub`, which bails with `FuelExhausted` when the
//! budget was already 0, before the instruction counts, like the
//! interpreter. A spill-tagged instruction's prelude then bumps
//! `by_tag[tag]`; untagged ones touch no memory. The body follows; `Mov`,
//! memory operations and calls additionally bump their dedicated counters.
//! The runtime derives `total` as the fuel spent and `by_tag[0]` as the
//! rest, so a native [`lsra_vm::DynCounts`] is field-for-field comparable
//! with an interpreted one. `r13` is callee-saved in the SysV ABI, so the
//! runtime helpers keep it. Faults (division by zero, out-of-bounds memory,
//! fuel, depth) write an error code into `Env` and unwind through each
//! frame's exit stub; callers test the error cell after every intra-module
//! call.

use lsra_ir::{Callee, Cond, ExtFn, FuncId, Function, Inst, MachineSpec, OpCode};
use lsra_ir::{Ins, Module, PhysReg, Reg, RegClass, SpillTag};

use crate::encoder::{Asm, Cc, Label, R12, R14, RAX, RBP, RBX, RCX, RDI, RDX, RSI, XMM0, XMM1};
use crate::encoder::{R13, RSP};
use crate::runtime::{self as rt, err};
use crate::JitError;

/// Everything [`crate::CodeBuffer`] needs from one lowering pass.
pub(crate) struct LoweredModule {
    /// The finished, relocated machine code.
    pub code: Vec<u8>,
    /// Byte offset of the `extern "C" fn(*mut Env)` entry trampoline.
    pub entry_offset: usize,
    /// Per-function `(start, end)` byte ranges, indexed by [`FuncId`].
    pub func_ranges: Vec<(usize, usize)>,
}

/// The frame geometry of one function — part of the JIT's public contract
/// (re-exported as [`crate::abi::FrameLayout`] for the static verifier).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FrameLayout {
    /// Number of integer-class virtual registers in the frame.
    pub ni: i32,
    /// Number of float-class virtual registers in the frame.
    pub nf: i32,
    /// Number of spill slots in the frame.
    pub ns: i32,
}

impl FrameLayout {
    /// The layout `f` compiles with under `spec`.
    pub fn new(f: &Function, spec: &MachineSpec) -> FrameLayout {
        FrameLayout {
            ni: spec.num_regs(RegClass::Int) as i32,
            nf: spec.num_regs(RegClass::Float) as i32,
            ns: f.num_slots as i32,
        }
    }

    /// Frame payload in 8-byte words (registers + spill slots).
    pub fn words(&self) -> i32 {
        self.ni + self.nf + self.ns
    }

    /// Frame size in bytes, 16-byte aligned so `rsp` stays aligned at calls.
    pub fn size(&self) -> i32 {
        (8 * self.words() + 15) & !15
    }

    /// `rbp`-relative home offset of a physical register.
    pub fn reg_off(&self, p: PhysReg) -> i32 {
        match p.class {
            RegClass::Int => -8 * (p.index as i32 + 1),
            RegClass::Float => -8 * (self.ni + p.index as i32 + 1),
        }
    }

    /// `rbp`-relative offset of spill slot `slot`.
    pub fn slot_off(&self, slot: i32) -> i32 {
        -8 * (self.ni + self.nf + slot + 1)
    }
}

/// `Env` transfer-file offset for a physical register.
pub fn xfer_off(p: PhysReg) -> i32 {
    match p.class {
        RegClass::Int => rt::OFF_XFER_INT + 8 * p.index as i32,
        RegClass::Float => rt::OFF_XFER_FLOAT + 8 * p.index as i32,
    }
}

/// `DynCounts::by_tag` index for a spill tag (the VM's `tag_index` order).
pub fn tag_index(tag: SpillTag) -> i32 {
    match tag {
        SpillTag::None => 0,
        SpillTag::EvictLoad => 1,
        SpillTag::EvictStore => 2,
        SpillTag::EvictMove => 3,
        SpillTag::ResolveLoad => 4,
        SpillTag::ResolveStore => 5,
        SpillTag::ResolveMove => 6,
    }
}

/// Emits the `extern "C" fn(*mut Env)` entry trampoline and returns the
/// position of its rel32 call into the entry function.
fn emit_trampoline(asm: &mut Asm) -> usize {
    asm.push_r(RBP);
    asm.mov_rr(RBP, RSP);
    // Save the callee-saved registers the generated code pins (r13 holds
    // the fuel); four pushes also keep rsp 16-byte aligned at the call.
    asm.push_r(RBX);
    asm.push_r(R12);
    asm.push_r(R13);
    asm.push_r(R14);
    asm.mov_rr(RBX, RDI);
    asm.mov_rm(R12, RBX, rt::OFF_MEM_BASE);
    asm.mov_rm(R14, RBX, rt::OFF_MEM_WORDS);
    asm.mov_rm(R13, RBX, rt::OFF_FUEL);
    let entry_call = asm.call_rel32_placeholder();
    asm.mov_mr(RBX, rt::OFF_FUEL, R13);
    asm.pop_r(R14);
    asm.pop_r(R13);
    asm.pop_r(R12);
    asm.pop_r(RBX);
    asm.pop_r(RBP);
    asm.ret();
    entry_call
}

/// Lowering state for one function.
struct FuncLowering<'a> {
    asm: &'a mut Asm,
    f: &'a Function,
    fid: FuncId,
    fl: FrameLayout,
    /// One label per basic block, in block order.
    blocks: Vec<Label>,
    l_fuel: Label,
    l_div0: Label,
    l_oob: Label,
    l_exit: Label,
    call_fixups: &'a mut Vec<(usize, FuncId)>,
    /// False when compiled standalone (no intra-module call targets exist).
    allow_calls: bool,
}

impl<'a> FuncLowering<'a> {
    /// Resolves an operand to its physical register.
    fn phys(&self, r: Reg) -> Result<PhysReg, JitError> {
        r.as_phys().ok_or_else(|| JitError::Unallocated { func: self.f.name.clone() })
    }

    /// Frame offset of an operand's home slot.
    fn off(&self, r: Reg) -> Result<i32, JitError> {
        Ok(self.fl.reg_off(self.phys(r)?))
    }

    fn malformed(&self, what: &str) -> JitError {
        JitError::Malformed { func: self.f.name.clone(), what: what.into() }
    }

    fn lower(mut self) -> Result<(), JitError> {
        self.prologue();
        let f = self.f;
        for (bi, block) in f.blocks.iter().enumerate() {
            self.asm.bind(self.blocks[bi]);
            for ins in &block.insts {
                self.lower_ins(ins, bi + 1)?;
            }
        }
        self.stubs_and_exit();
        Ok(())
    }

    fn prologue(&mut self) {
        let asm = &mut *self.asm;
        asm.push_r(RBP);
        asm.mov_rr(RBP, RSP);
        asm.sub_ri(RSP, self.fl.size());
        // Depth accounting: fault when the new depth exceeds the limit
        // (the interpreter refuses to push frame max_depth+1).
        asm.inc_m(RBX, rt::OFF_DEPTH);
        asm.mov_rm(RAX, RBX, rt::OFF_DEPTH);
        asm.cmp_rm(RAX, RBX, rt::OFF_MAX_DEPTH);
        let depth_ok = asm.label();
        asm.jcc(Cc::Be, depth_ok);
        asm.mov_mi(RBX, rt::OFF_ERR_CODE, err::DEPTH as i32);
        asm.jmp(self.l_exit);
        asm.bind(depth_ok);
        // Zero the frame for determinism (slots read-before-write are a VM
        // error; zeroing makes native behaviour reproducible anyway).
        if self.fl.size() > 0 {
            asm.zero_r(RAX);
            asm.mov_rr(RDI, RSP);
            asm.mov_ri(RCX, (self.fl.size() / 8) as i64);
            asm.rep_stosq();
        }
        // Arguments arrive through the transfer file: copy it in whole.
        for i in 0..self.fl.ni {
            asm.mov_rm(RAX, RBX, rt::OFF_XFER_INT + 8 * i);
            asm.mov_mr(RBP, -8 * (i + 1), RAX);
        }
        for j in 0..self.fl.nf {
            asm.mov_rm(RAX, RBX, rt::OFF_XFER_FLOAT + 8 * j);
            asm.mov_mr(RBP, -8 * (self.fl.ni + j + 1), RAX);
        }
    }

    /// Error stubs and the shared exit sequence.
    fn stubs_and_exit(&mut self) {
        let asm = &mut *self.asm;
        asm.bind(self.l_fuel);
        asm.mov_mi(RBX, rt::OFF_ERR_CODE, err::FUEL as i32);
        asm.jmp(self.l_exit);
        asm.bind(self.l_div0);
        asm.mov_mi(RBX, rt::OFF_ERR_CODE, err::DIV_BY_ZERO as i32);
        asm.mov_mi(RBX, rt::OFF_ERR_FUNC, self.fid.0 as i32);
        asm.jmp(self.l_exit);
        asm.bind(self.l_oob);
        // The faulting address is still in rax.
        asm.mov_mr(RBX, rt::OFF_ERR_ADDR, RAX);
        asm.mov_mi(RBX, rt::OFF_ERR_CODE, err::OUT_OF_BOUNDS as i32);
        asm.mov_mi(RBX, rt::OFF_ERR_FUNC, self.fid.0 as i32);
        asm.bind(self.l_exit);
        asm.dec_m(RBX, rt::OFF_DEPTH);
        asm.leave();
        asm.ret();
    }

    /// Fuel check shared by every instruction, plus the spill-tag counter
    /// of a tagged one. `sub` borrows (CF=1) exactly when the fuel was 0.
    fn counter_prelude(&mut self, tag: SpillTag) {
        let asm = &mut *self.asm;
        asm.sub_ri(R13, 1);
        asm.jcc(Cc::B, self.l_fuel);
        if tag != SpillTag::None {
            asm.inc_m(RBX, rt::OFF_BY_TAG + 8 * tag_index(tag));
        }
    }

    /// Computes the effective word address of `base + offset` into rax and
    /// bounds-checks it against r14 (a single unsigned compare also rejects
    /// negative addresses).
    fn address_check(&mut self, base: Reg, offset: i32) -> Result<(), JitError> {
        let base_off = self.off(base)?;
        let asm = &mut *self.asm;
        asm.mov_rm(RAX, RBP, base_off);
        if offset != 0 {
            asm.add_ri(RAX, offset);
        }
        asm.cmp_rr(RAX, R14);
        asm.jcc(Cc::Ae, self.l_oob);
        Ok(())
    }

    fn lower_ins(&mut self, ins: &Ins, next_block: usize) -> Result<(), JitError> {
        self.counter_prelude(ins.tag);
        match &ins.inst {
            Inst::Op { op, dst, srcs } => self.lower_op(*op, *dst, srcs)?,
            Inst::MovI { dst, imm } => {
                let d = self.off(*dst)?;
                self.asm.mov_ri(RAX, *imm);
                self.asm.mov_mr(RBP, d, RAX);
            }
            Inst::MovF { dst, imm } => {
                let d = self.off(*dst)?;
                self.asm.mov_ri(RAX, imm.to_bits() as i64);
                self.asm.mov_mr(RBP, d, RAX);
            }
            Inst::Mov { dst, src } => {
                // A raw 8-byte copy is exact for both classes.
                let (d, s) = (self.off(*dst)?, self.off(*src)?);
                self.asm.inc_m(RBX, rt::OFF_MOVES);
                self.asm.mov_rm(RAX, RBP, s);
                self.asm.mov_mr(RBP, d, RAX);
            }
            Inst::Load { dst, base, offset } => {
                let d = self.off(*dst)?;
                self.asm.inc_m(RBX, rt::OFF_MEMORY_OPS);
                self.address_check(*base, *offset)?;
                self.asm.mov_rm_index8(RCX, R12, RAX);
                self.asm.mov_mr(RBP, d, RCX);
            }
            Inst::Store { src, base, offset } => {
                let s = self.off(*src)?;
                self.asm.inc_m(RBX, rt::OFF_MEMORY_OPS);
                self.address_check(*base, *offset)?;
                self.asm.mov_rm(RCX, RBP, s);
                self.asm.mov_mr_index8(R12, RAX, RCX);
            }
            Inst::SpillLoad { dst, temp } => {
                let slot = self.f.spill_slots[temp.index()]
                    .ok_or_else(|| self.malformed("spill load of temp without slot"))?;
                let (d, s) = (self.off(*dst)?, self.fl.slot_off(slot.0 as i32));
                self.asm.inc_m(RBX, rt::OFF_MEMORY_OPS);
                self.asm.mov_rm(RAX, RBP, s);
                self.asm.mov_mr(RBP, d, RAX);
            }
            Inst::SpillStore { src, temp } => {
                let slot = self.f.spill_slots[temp.index()]
                    .ok_or_else(|| self.malformed("spill store of temp without slot"))?;
                let (s, d) = (self.off(*src)?, self.fl.slot_off(slot.0 as i32));
                self.asm.inc_m(RBX, rt::OFF_MEMORY_OPS);
                self.asm.mov_rm(RAX, RBP, s);
                self.asm.mov_mr(RBP, d, RAX);
            }
            Inst::Call { callee, arg_regs, ret_regs } => {
                self.lower_call(*callee, arg_regs, ret_regs)?;
            }
            Inst::Jump { target } => {
                if target.index() != next_block {
                    self.asm.jmp(self.blocks[target.index()]);
                }
            }
            Inst::Branch { cond, src, then_tgt, else_tgt } => {
                let s = self.off(*src)?;
                self.asm.mov_rm(RAX, RBP, s);
                self.asm.test_rr(RAX, RAX);
                let cc = match cond {
                    Cond::Eq => Cc::E,
                    Cond::Ne => Cc::Ne,
                    Cond::Lt => Cc::L,
                    Cond::Le => Cc::Le,
                    Cond::Gt => Cc::G,
                    Cond::Ge => Cc::Ge,
                };
                self.asm.jcc(cc, self.blocks[then_tgt.index()]);
                if else_tgt.index() != next_block {
                    self.asm.jmp(self.blocks[else_tgt.index()]);
                }
            }
            Inst::Ret { ret_regs } => {
                // Publish the full register file; the caller copies out only
                // its declared return registers. The entry return value is
                // read by the runtime from the transfer file.
                for i in 0..self.fl.ni {
                    self.asm.mov_rm(RAX, RBP, -8 * (i + 1));
                    self.asm.mov_mr(RBX, rt::OFF_XFER_INT + 8 * i, RAX);
                }
                for j in 0..self.fl.nf {
                    self.asm.mov_rm(RAX, RBP, -8 * (self.fl.ni + j + 1));
                    self.asm.mov_mr(RBX, rt::OFF_XFER_FLOAT + 8 * j, RAX);
                }
                let ret_idx = ret_regs
                    .iter()
                    .find(|p| p.class == RegClass::Int)
                    .map(|p| p.index as i32)
                    .unwrap_or(-1);
                self.asm.mov_mi(RBX, rt::OFF_LAST_RET, ret_idx);
                self.asm.jmp(self.l_exit);
            }
        }
        Ok(())
    }

    fn lower_op(&mut self, op: OpCode, dst: Reg, srcs: &[Reg]) -> Result<(), JitError> {
        use OpCode::*;
        let d = self.off(dst)?;
        let s0 = self.off(srcs[0])?;
        match op {
            Add | Sub | Mul | And | Or | Xor => {
                let s1 = self.off(srcs[1])?;
                let asm = &mut *self.asm;
                asm.mov_rm(RAX, RBP, s0);
                asm.mov_rm(RCX, RBP, s1);
                match op {
                    Add => asm.add_rr(RAX, RCX),
                    Sub => asm.sub_rr(RAX, RCX),
                    Mul => asm.imul_rr(RAX, RCX),
                    And => asm.and_rr(RAX, RCX),
                    Or => asm.or_rr(RAX, RCX),
                    _ => asm.xor_rr(RAX, RCX),
                }
                asm.mov_mr(RBP, d, RAX);
            }
            Shl | Shr => {
                // The hardware masks cl by 63 for 64-bit shifts, exactly the
                // interpreter's `count as u32 & 63`.
                let s1 = self.off(srcs[1])?;
                let asm = &mut *self.asm;
                asm.mov_rm(RAX, RBP, s0);
                asm.mov_rm(RCX, RBP, s1);
                if op == Shl {
                    asm.shl_cl(RAX);
                } else {
                    asm.sar_cl(RAX);
                }
                asm.mov_mr(RBP, d, RAX);
            }
            CmpEq | CmpLt | CmpLe => {
                let s1 = self.off(srcs[1])?;
                let asm = &mut *self.asm;
                asm.mov_rm(RAX, RBP, s0);
                asm.mov_rm(RCX, RBP, s1);
                asm.cmp_rr(RAX, RCX);
                let cc = match op {
                    CmpEq => Cc::E,
                    CmpLt => Cc::L,
                    _ => Cc::Le,
                };
                asm.setcc(cc, RAX);
                asm.movzx_rb(RAX, RAX);
                asm.mov_mr(RBP, d, RAX);
            }
            Div | Rem => self.lower_div(op == Rem, d, s0, self.off(srcs[1])?),
            Neg | Not => {
                let asm = &mut *self.asm;
                asm.mov_rm(RAX, RBP, s0);
                if op == Neg {
                    asm.neg_r(RAX);
                } else {
                    asm.not_r(RAX);
                }
                asm.mov_mr(RBP, d, RAX);
            }
            FAdd | FSub | FMul | FDiv => {
                let s1 = self.off(srcs[1])?;
                let asm = &mut *self.asm;
                asm.movsd_xm(XMM0, RBP, s0);
                asm.movsd_xm(XMM1, RBP, s1);
                match op {
                    FAdd => asm.addsd(XMM0, XMM1),
                    FSub => asm.subsd(XMM0, XMM1),
                    FMul => asm.mulsd(XMM0, XMM1),
                    _ => asm.divsd(XMM0, XMM1),
                }
                asm.movsd_mx(RBP, d, XMM0);
            }
            FSqrt => {
                let asm = &mut *self.asm;
                asm.movsd_xm(XMM0, RBP, s0);
                asm.sqrtsd(XMM0, XMM0);
                asm.movsd_mx(RBP, d, XMM0);
            }
            FNeg | FAbs => {
                // Pure sign-bit manipulation, like LLVM's fneg/fabs — exact
                // on NaNs where an SSE arithmetic identity would not be.
                let asm = &mut *self.asm;
                asm.mov_rm(RAX, RBP, s0);
                if op == FNeg {
                    asm.mov_ri(RCX, i64::MIN);
                    asm.xor_rr(RAX, RCX);
                } else {
                    asm.mov_ri(RCX, i64::MAX);
                    asm.and_rr(RAX, RCX);
                }
                asm.mov_mr(RBP, d, RAX);
            }
            FCmpEq => {
                // ZF alone conflates "equal" with "unordered": guard with PF.
                let s1 = self.off(srcs[1])?;
                let asm = &mut *self.asm;
                asm.movsd_xm(XMM0, RBP, s0);
                asm.movsd_xm(XMM1, RBP, s1);
                asm.ucomisd(XMM0, XMM1);
                asm.setcc(Cc::Np, RAX);
                asm.setcc(Cc::E, RDX);
                asm.and_rr8(RAX, RDX);
                asm.movzx_rb(RAX, RAX);
                asm.mov_mr(RBP, d, RAX);
            }
            FCmpLt | FCmpLe => {
                // Compare operands swapped so the unsigned "above" family
                // yields false on unordered (CF=1), matching Rust's `<`/`<=`.
                let s1 = self.off(srcs[1])?;
                let asm = &mut *self.asm;
                asm.movsd_xm(XMM0, RBP, s0);
                asm.movsd_xm(XMM1, RBP, s1);
                asm.ucomisd(XMM1, XMM0);
                asm.setcc(if op == FCmpLt { Cc::A } else { Cc::Ae }, RAX);
                asm.movzx_rb(RAX, RAX);
                asm.mov_mr(RBP, d, RAX);
            }
            IntToFloat => {
                let asm = &mut *self.asm;
                asm.mov_rm(RAX, RBP, s0);
                asm.cvtsi2sd(XMM0, RAX);
                asm.movsd_mx(RBP, d, XMM0);
            }
            FloatToInt => {
                // Rust's saturating cast differs from raw cvttsd2si; call the
                // out-of-line Rust helper for bit-exact agreement.
                let asm = &mut *self.asm;
                asm.mov_rm(RDI, RBP, s0);
                asm.mov_ri(RAX, rt::ftoi_address() as i64);
                asm.call_r(RAX);
                asm.mov_mr(RBP, d, RAX);
            }
        }
        Ok(())
    }

    /// Integer division with the interpreter's exact semantics: divisor zero
    /// faults, `i64::MIN / -1` wraps (quotient MIN, remainder 0) instead of
    /// raising x86's #DE.
    fn lower_div(&mut self, is_rem: bool, d: i32, s0: i32, s1: i32) {
        let asm = &mut *self.asm;
        let l_do = asm.label();
        let l_done = asm.label();
        asm.mov_rm(RAX, RBP, s0);
        asm.mov_rm(RCX, RBP, s1);
        asm.test_rr(RCX, RCX);
        asm.jcc(Cc::E, self.l_div0);
        asm.cmp_ri8(RCX, -1);
        asm.jcc(Cc::Ne, l_do);
        asm.mov_ri(RDX, i64::MIN);
        asm.cmp_rr(RAX, RDX);
        asm.jcc(Cc::Ne, l_do);
        if is_rem {
            asm.zero_r(RAX); // MIN wrapping_rem -1 == 0
        }
        asm.jmp(l_done); // MIN wrapping_div -1 == MIN, already in rax
        asm.bind(l_do);
        asm.cqo();
        asm.idiv_r(RCX);
        if is_rem {
            asm.mov_rr(RAX, RDX);
        }
        asm.bind(l_done);
        asm.mov_mr(RBP, d, RAX);
    }

    fn lower_call(
        &mut self,
        callee: Callee,
        arg_regs: &[PhysReg],
        ret_regs: &[PhysReg],
    ) -> Result<(), JitError> {
        self.asm.inc_m(RBX, rt::OFF_CALLS);
        match callee {
            Callee::Ext(ext) => {
                let helper: usize = rt::helper_address(ext);
                // Mirror the interpreter's argument selection: first operand
                // of the class the routine consumes.
                let wanted = match ext {
                    ExtFn::GetChar => None,
                    ExtFn::PutFloat => Some(RegClass::Float),
                    _ => Some(RegClass::Int),
                };
                if let Some(class) = wanted {
                    let arg = arg_regs
                        .iter()
                        .find(|p| p.class == class)
                        .copied()
                        .ok_or_else(|| self.malformed("external call missing argument"))?;
                    let s = self.fl.reg_off(arg);
                    self.asm.mov_rm(RSI, RBP, s);
                }
                self.asm.mov_rr(RDI, RBX);
                self.asm.mov_ri(RAX, helper as i64);
                self.asm.call_r(RAX);
                if ext == ExtFn::GetChar {
                    let ret = *ret_regs
                        .first()
                        .ok_or_else(|| self.malformed("getchar without return register"))?;
                    let doff = self.fl.reg_off(ret);
                    self.asm.mov_mr(RBP, doff, RAX);
                }
            }
            Callee::Func(id) => {
                if !self.allow_calls {
                    return Err(self.malformed("intra-module call cannot be compiled standalone"));
                }
                // Stage arguments in the transfer file.
                for &p in arg_regs {
                    let s = self.fl.reg_off(p);
                    self.asm.mov_rm(RAX, RBP, s);
                    self.asm.mov_mr(RBX, xfer_off(p), RAX);
                }
                let pos = self.asm.call_rel32_placeholder();
                self.call_fixups.push((pos, id));
                // Propagate callee faults before touching results.
                self.asm.cmp_mi8(RBX, rt::OFF_ERR_CODE, 0);
                self.asm.jcc(Cc::Ne, self.l_exit);
                for &p in ret_regs {
                    let doff = self.fl.reg_off(p);
                    self.asm.mov_rm(RAX, RBX, xfer_off(p));
                    self.asm.mov_mr(RBP, doff, RAX);
                }
            }
        }
        Ok(())
    }
}

fn lower_function(
    asm: &mut Asm,
    f: &Function,
    fid: FuncId,
    spec: &MachineSpec,
    call_fixups: &mut Vec<(usize, FuncId)>,
    allow_calls: bool,
) -> Result<(), JitError> {
    let blocks = (0..f.blocks.len()).map(|_| asm.label()).collect();
    let (l_fuel, l_div0, l_oob, l_exit) = (asm.label(), asm.label(), asm.label(), asm.label());
    FuncLowering {
        asm,
        f,
        fid,
        fl: FrameLayout::new(f, spec),
        blocks,
        l_fuel,
        l_div0,
        l_oob,
        l_exit,
        call_fixups,
        allow_calls,
    }
    .lower()
}

/// Lowers every function of `module`, links intra-module calls, and returns
/// the relocated code image.
pub(crate) fn lower_module(module: &Module, spec: &MachineSpec) -> Result<LoweredModule, JitError> {
    let mut asm = Asm::new();
    let entry_call = emit_trampoline(&mut asm);
    let mut call_fixups = Vec::new();
    let mut func_ranges = Vec::with_capacity(module.funcs.len());
    for (i, f) in module.funcs.iter().enumerate() {
        let start = asm.len();
        lower_function(&mut asm, f, FuncId(i as u32), spec, &mut call_fixups, true)?;
        func_ranges.push((start, asm.len()));
    }
    let mut code = asm.finish();
    Asm::patch_rel32(&mut code, entry_call, func_ranges[module.entry.index()].0);
    for (pos, fid) in call_fixups {
        Asm::patch_rel32(&mut code, pos, func_ranges[fid.index()].0);
    }
    Ok(LoweredModule { code, entry_offset: 0, func_ranges })
}

/// Lowers a single function with no intra-module call targets.
pub(crate) fn lower_single_function(
    f: &Function,
    spec: &MachineSpec,
) -> Result<LoweredModule, JitError> {
    let mut asm = Asm::new();
    let entry_call = emit_trampoline(&mut asm);
    let mut call_fixups = Vec::new();
    let start = asm.len();
    lower_function(&mut asm, f, FuncId(0), spec, &mut call_fixups, false)?;
    let end = asm.len();
    let mut code = asm.finish();
    Asm::patch_rel32(&mut code, entry_call, start);
    Ok(LoweredModule { code, entry_offset: 0, func_ranges: vec![(start, end)] })
}
