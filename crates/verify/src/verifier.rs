//! The symbolic machine-code verifier: proves that a compiled image
//! faithfully implements its allocated IR (see `DESIGN.md` §16).
//!
//! The verifier walks each function's machine code in lockstep with the
//! allocated IR. Structural regions with control flow — trampoline,
//! prologue, counter preludes, branch shapes, the division diamond, error
//! stubs — are matched against their contracts instruction by instruction.
//! Straight-line template bodies are instead *abstractly interpreted*: a
//! symbolic machine state maps every host register to an [`SVal`] term over
//! the frame cells it was loaded from, and at the template boundary the
//! accumulated frame/`Env`/data-memory writes must equal the IR
//! instruction's denotation (e.g. `add` must store
//! `Add(frame[src0], frame[src1])` into `frame[dst]`, and nothing else).
//! This is the machine-level analogue of the allocation checker's must-sets:
//! the state is a *must*-knowledge map, reset to ⊤-free facts at each
//! template boundary, which is sound because templates communicate only
//! through frame and `Env` cells.
//!
//! Branch targets are resolved in deferred fashion: every `jmp`/`jcc` is
//! recorded with its intent (a block, a fault stub, the shared exit) and
//! checked once the walk has discovered where those positions actually
//! landed. Intra-module call sites are collected per function and resolved
//! at module level against the function table.

use lsra_ir::{BlockId, Callee, Cond, ExtFn, FuncId, Function, Ins, Inst};
use lsra_ir::{MachineSpec, Module, OpCode, Reg, RegClass, SpillTag};
use lsra_jit::abi::{self, err, FrameLayout};
use lsra_jit::encoder::{Cc, Gpr, Xmm, R12, R13, R14, RAX, RBP, RBX, RCX, RDI, RDX, RSI, RSP};
use lsra_jit::CodeBuffer;
use lsra_lint::{Diagnostic, LintCode, LintReport};

use crate::decoder::{decode_one, gpr_name, AluOp, MInst, SseOp};

use std::fmt;

/// A symbolic value: what a host register (or a written cell) holds,
/// expressed over the template-entry contents of frame and `Env` cells.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum SVal {
    /// Unknown (⊥ knowledge).
    Junk,
    /// The pinned `Env` pointer (`rbx`).
    EnvPtr,
    /// The pinned data-memory base (`r12`).
    MemBase,
    /// The pinned data-memory word count (`r14`).
    MemWords,
    /// The pinned frame base (`rbp`).
    FramePtr,
    /// The stack pointer (`rsp`).
    StackPtr,
    /// A known constant.
    Imm(i64),
    /// The template-entry contents of frame cell `[rbp + disp]`.
    Cell(i32),
    /// The template-entry contents of `Env` cell `[rbx + off]`.
    EnvCell(i32),
    /// `op` applied to two symbolic operands.
    Bin(OpCode, Box<SVal>, Box<SVal>),
    /// A unary `op` applied to a symbolic operand.
    Un(OpCode, Box<SVal>),
    /// A raw `setcc` byte over a flags snapshot (conditions with no direct
    /// IR denotation).
    CcOf(Cc, Box<Flags>),
    /// The return value of a runtime helper call.
    HelperRet,
    /// The data-memory word at the given symbolic word address.
    MemWord(Box<SVal>),
}

impl fmt::Display for SVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SVal::Junk => write!(f, "junk"),
            SVal::EnvPtr => write!(f, "env"),
            SVal::MemBase => write!(f, "membase"),
            SVal::MemWords => write!(f, "memwords"),
            SVal::FramePtr => write!(f, "frame"),
            SVal::StackPtr => write!(f, "stack"),
            SVal::Imm(v) => write!(f, "{v}"),
            SVal::Cell(d) => write!(f, "frame[{d}]"),
            SVal::EnvCell(o) => write!(f, "env[{o}]"),
            SVal::Bin(op, a, b) => write!(f, "{op:?}({a}, {b})"),
            SVal::Un(op, a) => write!(f, "{op:?}({a})"),
            SVal::CcOf(cc, fl) => write!(f, "set{}({fl})", cc.mnemonic()),
            SVal::HelperRet => write!(f, "helper-ret"),
            SVal::MemWord(a) => write!(f, "mem[{a}]"),
        }
    }
}

/// A symbolic flags state.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Flags {
    /// Unknown.
    Junk,
    /// Flags of `cmp a, b`.
    Cmp(SVal, SVal),
    /// Flags of `test v, v` (both operands the same value).
    Test(SVal),
    /// Flags of `ucomisd a, b`.
    Ucomi(SVal, SVal),
}

impl fmt::Display for Flags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Flags::Junk => write!(f, "junk"),
            Flags::Cmp(a, b) => write!(f, "cmp({a}, {b})"),
            Flags::Test(v) => write!(f, "test({v})"),
            Flags::Ucomi(a, b) => write!(f, "ucomi({a}, {b})"),
        }
    }
}

fn bin(op: OpCode, a: SVal, b: SVal) -> SVal {
    SVal::Bin(op, Box::new(a), Box::new(b))
}

fn un(op: OpCode, a: SVal) -> SVal {
    SVal::Un(op, Box::new(a))
}

/// True for the 0/1-valued comparison terms, which pass through `movzx`
/// unchanged.
fn is_bool(v: &SVal) -> bool {
    use OpCode::*;
    matches!(v, SVal::Bin(CmpEq | CmpLt | CmpLe | FCmpEq | FCmpLt | FCmpLe, _, _))
}

/// Symbolic evaluation of a `setcc` against the current flags: conditions
/// with a direct IR denotation become comparison terms.
fn cc_val(cc: Cc, flags: &Flags) -> SVal {
    match (cc, flags) {
        (Cc::E, Flags::Cmp(a, b)) => bin(OpCode::CmpEq, a.clone(), b.clone()),
        (Cc::L, Flags::Cmp(a, b)) => bin(OpCode::CmpLt, a.clone(), b.clone()),
        (Cc::Le, Flags::Cmp(a, b)) => bin(OpCode::CmpLe, a.clone(), b.clone()),
        // `ucomisd a, b` + "above" reads as `b < a`: the lowering swaps the
        // operands so unordered yields false via CF.
        (Cc::A, Flags::Ucomi(a, b)) => bin(OpCode::FCmpLt, b.clone(), a.clone()),
        (Cc::Ae, Flags::Ucomi(a, b)) => bin(OpCode::FCmpLe, b.clone(), a.clone()),
        _ => SVal::CcOf(cc, Box::new(flags.clone())),
    }
}

/// `and dst8, src8` over the FCmpEq pattern: `setnp ∧ sete` of the same
/// `ucomisd` is "ordered and equal".
fn and8_val(a: &SVal, b: &SVal) -> SVal {
    if let (SVal::CcOf(Cc::Np, f1), SVal::CcOf(Cc::E, f2)) = (a, b) {
        if f1 == f2 {
            if let Flags::Ucomi(x, y) = &**f1 {
                return bin(OpCode::FCmpEq, x.clone(), y.clone());
            }
        }
    }
    SVal::Junk
}

/// The symbolic machine state for one template window.
struct SymState {
    gpr: [SVal; 16],
    xmm: [SVal; 16],
    flags: Flags,
    /// Frame writes this window performed, in order.
    frame: Vec<(i32, SVal)>,
    /// `Env` writes this window performed, in order.
    env: Vec<(i32, SVal)>,
    /// Data-memory writes `(word address, value)` this window performed.
    mem: Vec<(SVal, SVal)>,
}

/// Registers with pinned roles; templates must never write them.
const PINNED: [Gpr; 6] = [RBX, RSP, RBP, R12, R13, R14];

type StepError = (LintCode, String);

impl SymState {
    fn new() -> SymState {
        let mut st = SymState {
            gpr: std::array::from_fn(|_| SVal::Junk),
            xmm: std::array::from_fn(|_| SVal::Junk),
            flags: Flags::Junk,
            frame: Vec::new(),
            env: Vec::new(),
            mem: Vec::new(),
        };
        st.reset();
        st
    }

    /// Resets to the template-entry state: only the pinned roles are known.
    fn reset(&mut self) {
        for v in &mut self.gpr {
            *v = SVal::Junk;
        }
        for v in &mut self.xmm {
            *v = SVal::Junk;
        }
        self.gpr[RBX.0 as usize] = SVal::EnvPtr;
        self.gpr[RBP.0 as usize] = SVal::FramePtr;
        self.gpr[RSP.0 as usize] = SVal::StackPtr;
        self.gpr[R12.0 as usize] = SVal::MemBase;
        self.gpr[R13.0 as usize] = SVal::Junk;
        self.gpr[R14.0 as usize] = SVal::MemWords;
        self.flags = Flags::Junk;
        self.frame.clear();
        self.env.clear();
        self.mem.clear();
    }

    fn gpr(&self, r: Gpr) -> SVal {
        self.gpr[r.0 as usize & 15].clone()
    }

    fn xmm(&self, r: Xmm) -> SVal {
        self.xmm[r.0 as usize & 15].clone()
    }

    fn set(&mut self, r: Gpr, v: SVal) -> Result<(), StepError> {
        if PINNED.contains(&r) {
            return Err((
                LintCode::NativeDataflow,
                format!("template writes pinned register {}", gpr_name(r)),
            ));
        }
        self.gpr[r.0 as usize & 15] = v;
        Ok(())
    }

    /// Sets a register without the pinned check (for manual state surgery in
    /// structural handlers, never reachable from decoded operands).
    fn set_raw(&mut self, r: Gpr, v: SVal) {
        self.gpr[r.0 as usize & 15] = v;
    }

    fn read_mem(&self, base: Gpr, disp: i32) -> Result<SVal, StepError> {
        match self.gpr(base) {
            SVal::FramePtr => Ok(self
                .frame
                .iter()
                .rev()
                .find(|(d, _)| *d == disp)
                .map(|(_, v)| v.clone())
                .unwrap_or(SVal::Cell(disp))),
            SVal::EnvPtr => Ok(self
                .env
                .iter()
                .rev()
                .find(|(d, _)| *d == disp)
                .map(|(_, v)| v.clone())
                .unwrap_or(SVal::EnvCell(disp))),
            other => Err((
                LintCode::NativeShape,
                format!("load through {} (= {other}), expected frame or env base", gpr_name(base)),
            )),
        }
    }

    fn write_mem(&mut self, base: Gpr, disp: i32, v: SVal) -> Result<(), StepError> {
        match self.gpr(base) {
            SVal::FramePtr => {
                self.frame.push((disp, v));
                Ok(())
            }
            SVal::EnvPtr => {
                self.env.push((disp, v));
                Ok(())
            }
            other => Err((
                LintCode::NativeShape,
                format!("store through {} (= {other}), expected frame or env base", gpr_name(base)),
            )),
        }
    }

    /// Models a helper call's clobbers: every caller-saved register and all
    /// flags become unknown; `rax` carries the helper's return value.
    fn helper_call(&mut self) {
        for r in [RAX, RCX, RDX, RSI, RDI, Gpr(8), Gpr(9), Gpr(10), Gpr(11)] {
            self.gpr[r.0 as usize] = SVal::Junk;
        }
        for v in &mut self.xmm {
            *v = SVal::Junk;
        }
        self.flags = Flags::Junk;
        self.gpr[RAX.0 as usize] = SVal::HelperRet;
    }

    /// One symbolic step over a straight-line instruction. Control-flow and
    /// frame-management instructions are rejected — they only belong to
    /// structural regions, which never route through here.
    fn step(&mut self, mi: &MInst) -> Result<(), StepError> {
        match *mi {
            MInst::MovRR { dst, src } => self.set(dst, self.gpr(src))?,
            MInst::MovRI { dst, imm } => self.set(dst, SVal::Imm(imm))?,
            MInst::MovRM { dst, base, disp } => {
                let v = self.read_mem(base, disp)?;
                self.set(dst, v)?;
            }
            MInst::MovMR { base, disp, src } => self.write_mem(base, disp, self.gpr(src))?,
            MInst::MovMI { base, disp, imm } => {
                self.write_mem(base, disp, SVal::Imm(imm as i64))?
            }
            MInst::MovRMIndex8 { dst, base, index } => {
                if self.gpr(base) != SVal::MemBase {
                    return Err((
                        LintCode::NativeShape,
                        format!("scaled load through {}, expected the memory base", gpr_name(base)),
                    ));
                }
                let v = SVal::MemWord(Box::new(self.gpr(index)));
                self.set(dst, v)?;
            }
            MInst::MovMRIndex8 { base, index, src } => {
                if self.gpr(base) != SVal::MemBase {
                    return Err((
                        LintCode::NativeShape,
                        format!(
                            "scaled store through {}, expected the memory base",
                            gpr_name(base)
                        ),
                    ));
                }
                let w = (self.gpr(index), self.gpr(src));
                self.mem.push(w);
            }
            MInst::MovzxRb { dst, src } => {
                let v = self.gpr(src);
                self.set(dst, if is_bool(&v) { v } else { SVal::Junk })?;
            }
            MInst::Alu { op, dst, src } => {
                let (a, b) = (self.gpr(dst), self.gpr(src));
                match op {
                    AluOp::Cmp => self.flags = Flags::Cmp(a, b),
                    AluOp::Test => {
                        self.flags = if a == b { Flags::Test(a) } else { Flags::Junk };
                    }
                    AluOp::Add => {
                        self.set(dst, bin(OpCode::Add, a, b))?;
                        self.flags = Flags::Junk;
                    }
                    AluOp::Sub => {
                        self.set(dst, bin(OpCode::Sub, a, b))?;
                        self.flags = Flags::Junk;
                    }
                    AluOp::And => {
                        self.set(dst, bin(OpCode::And, a, b))?;
                        self.flags = Flags::Junk;
                    }
                    AluOp::Or => {
                        self.set(dst, bin(OpCode::Or, a, b))?;
                        self.flags = Flags::Junk;
                    }
                    AluOp::Xor => {
                        self.set(dst, bin(OpCode::Xor, a, b))?;
                        self.flags = Flags::Junk;
                    }
                }
            }
            MInst::ImulRR { dst, src } => {
                let v = bin(OpCode::Mul, self.gpr(dst), self.gpr(src));
                self.set(dst, v)?;
                self.flags = Flags::Junk;
            }
            MInst::AddRI { reg, imm } => {
                let v = bin(OpCode::Add, self.gpr(reg), SVal::Imm(imm as i64));
                self.set(reg, v)?;
                self.flags = Flags::Junk;
            }
            MInst::SubRI { reg, imm } => {
                let v = bin(OpCode::Sub, self.gpr(reg), SVal::Imm(imm as i64));
                self.set(reg, v)?;
                self.flags = Flags::Junk;
            }
            MInst::CmpRI8 { reg, imm } => {
                self.flags = Flags::Cmp(self.gpr(reg), SVal::Imm(imm as i64));
            }
            MInst::CmpMI8 { base, disp, imm } => {
                self.flags = Flags::Cmp(self.read_mem(base, disp)?, SVal::Imm(imm as i64));
            }
            MInst::CmpRM { reg, base, disp } => {
                self.flags = Flags::Cmp(self.gpr(reg), self.read_mem(base, disp)?);
            }
            MInst::NegR { reg } => {
                let v = un(OpCode::Neg, self.gpr(reg));
                self.set(reg, v)?;
                self.flags = Flags::Junk;
            }
            MInst::NotR { reg } => {
                let v = un(OpCode::Not, self.gpr(reg));
                self.set(reg, v)?;
            }
            MInst::ShlCl { reg } => {
                let v = bin(OpCode::Shl, self.gpr(reg), self.gpr(RCX));
                self.set(reg, v)?;
                self.flags = Flags::Junk;
            }
            MInst::SarCl { reg } => {
                let v = bin(OpCode::Shr, self.gpr(reg), self.gpr(RCX));
                self.set(reg, v)?;
                self.flags = Flags::Junk;
            }
            MInst::ZeroR { reg } => {
                self.set(reg, SVal::Imm(0))?;
                self.flags = Flags::Junk;
            }
            MInst::Setcc { cc, reg } => {
                let v = cc_val(cc, &self.flags);
                self.set(reg, v)?;
            }
            MInst::AndRR8 { dst, src } => {
                let v = and8_val(&self.gpr(dst), &self.gpr(src));
                self.set(dst, v)?;
                self.flags = Flags::Junk;
            }
            MInst::MovsdXM { dst, base, disp } => {
                if self.gpr(base) != SVal::FramePtr {
                    return Err((
                        LintCode::NativeShape,
                        format!("movsd load through {}, expected the frame base", gpr_name(base)),
                    ));
                }
                self.xmm[dst.0 as usize & 15] = self.read_mem(base, disp)?;
            }
            MInst::MovsdMX { base, disp, src } => {
                if self.gpr(base) != SVal::FramePtr {
                    return Err((
                        LintCode::NativeShape,
                        format!("movsd store through {}, expected the frame base", gpr_name(base)),
                    ));
                }
                let v = self.xmm(src);
                self.frame.push((disp, v));
            }
            MInst::Sse { op, dst, src } => {
                let v = match op {
                    SseOp::Add => bin(OpCode::FAdd, self.xmm(dst), self.xmm(src)),
                    SseOp::Sub => bin(OpCode::FSub, self.xmm(dst), self.xmm(src)),
                    SseOp::Mul => bin(OpCode::FMul, self.xmm(dst), self.xmm(src)),
                    SseOp::Div => bin(OpCode::FDiv, self.xmm(dst), self.xmm(src)),
                    SseOp::Sqrt => un(OpCode::FSqrt, self.xmm(src)),
                };
                self.xmm[dst.0 as usize & 15] = v;
            }
            MInst::Ucomisd { a, b } => self.flags = Flags::Ucomi(self.xmm(a), self.xmm(b)),
            MInst::Cvtsi2sd { dst, src } => {
                self.xmm[dst.0 as usize & 15] = un(OpCode::IntToFloat, self.gpr(src));
            }
            MInst::Cqo
            | MInst::IdivR { .. }
            | MInst::IncM { .. }
            | MInst::DecM { .. }
            | MInst::PushR { .. }
            | MInst::PopR { .. }
            | MInst::Leave
            | MInst::Ret
            | MInst::RepStosq
            | MInst::Jmp { .. }
            | MInst::Jcc { .. }
            | MInst::CallRel { .. }
            | MInst::CallR { .. } => {
                return Err((
                    LintCode::NativeShape,
                    "control-flow or frame instruction inside a straight-line template".to_string(),
                ));
            }
        }
        Ok(())
    }
}

/// What a recorded branch must resolve to once positions are known.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum TKind {
    Fuel,
    Div0,
    Oob,
    Exit,
    Block(usize),
}

impl TKind {
    fn describe(self) -> String {
        match self {
            TKind::Fuel => "the fuel stub".to_string(),
            TKind::Div0 => "the div-by-zero stub".to_string(),
            TKind::Oob => "the out-of-bounds stub".to_string(),
            TKind::Exit => "the shared exit".to_string(),
            TKind::Block(b) => format!("block b{b}"),
        }
    }
}

/// Walks one function's machine code against its allocated IR.
struct FnWalker<'a> {
    code: &'a [u8],
    f: &'a Function,
    fid: FuncId,
    fl: FrameLayout,
    end: usize,
    pos: usize,
    st: SymState,
    block: Option<BlockId>,
    inst: Option<usize>,
    /// `(branch site, absolute target, intent)` resolved after the walk.
    pending: Vec<(usize, i64, TKind)>,
    block_offsets: Vec<usize>,
    /// `(call site, absolute target, callee)` resolved at module level.
    calls: Vec<(usize, i64, FuncId)>,
    /// `(offset, text)` annotations for the disassembly listing.
    markers: Vec<(usize, String)>,
    diags: Vec<Diagnostic>,
}

impl<'a> FnWalker<'a> {
    fn new(
        code: &'a [u8],
        f: &'a Function,
        fid: FuncId,
        spec: &MachineSpec,
        range: (usize, usize),
    ) -> Self {
        FnWalker {
            code,
            f,
            fid,
            fl: FrameLayout::new(f, spec),
            end: range.1,
            pos: range.0,
            st: SymState::new(),
            block: None,
            inst: None,
            pending: Vec::new(),
            block_offsets: Vec::new(),
            calls: Vec::new(),
            markers: Vec::new(),
            diags: Vec::new(),
        }
    }

    fn emit_at(&mut self, code: LintCode, at: usize, message: String) {
        self.diags.push(Diagnostic {
            code,
            func: self.f.name.clone(),
            block: self.block,
            inst: self.inst,
            line: None,
            message: format!("at +{at:#x}: {message}"),
        });
    }

    fn marker(&mut self, text: String) {
        self.markers.push((self.pos, text));
    }

    /// Decodes the next instruction; `N001` and abort on failure.
    fn next_inst(&mut self) -> Result<(MInst, usize), ()> {
        // A corrupted layout table can claim a range past the image; clamp
        // so the walk reports truncation instead of slicing out of bounds.
        let lim = self.end.min(self.code.len());
        if self.pos >= lim {
            self.emit_at(
                LintCode::NativeFrame,
                lim,
                "machine code ends before the allocated IR does".to_string(),
            );
            return Err(());
        }
        let at = self.pos;
        match decode_one(&self.code[..lim], self.pos) {
            Ok((mi, len)) => {
                self.pos += len;
                Ok((mi, at))
            }
            Err(e) => {
                self.emit_at(LintCode::NativeDecode, at, e.what);
                Err(())
            }
        }
    }

    /// Consumes one instruction and requires exact structural equality.
    fn expect(&mut self, want: MInst, code: LintCode, what: &str) -> Result<(), ()> {
        let (got, at) = self.next_inst()?;
        if got != want {
            self.emit_at(code, at, format!("{what}: expected `{want}`, found `{got}`"));
            return Err(());
        }
        Ok(())
    }

    /// Consumes one instruction, which must be a `jcc`; returns
    /// `(condition, site, absolute target)`.
    fn expect_jcc_any(&mut self, what: &str) -> Result<(Cc, usize, i64), ()> {
        let (got, at) = self.next_inst()?;
        match got {
            MInst::Jcc { cc, rel } => Ok((cc, at, self.pos as i64 + rel as i64)),
            other => {
                self.emit_at(
                    LintCode::NativeBranch,
                    at,
                    format!("{what}: expected a conditional jump, found `{other}`"),
                );
                Err(())
            }
        }
    }

    fn expect_jcc(&mut self, cc: Cc, what: &str) -> Result<(usize, i64), ()> {
        let (got, at, target) = self.expect_jcc_any(what)?;
        if got != cc {
            self.emit_at(
                LintCode::NativeBranch,
                at,
                format!("{what}: expected j{}, found j{}", cc.mnemonic(), got.mnemonic()),
            );
            return Err(());
        }
        Ok((at, target))
    }

    fn expect_jmp(&mut self, what: &str) -> Result<(usize, i64), ()> {
        let (got, at) = self.next_inst()?;
        match got {
            MInst::Jmp { rel } => Ok((at, self.pos as i64 + rel as i64)),
            other => {
                self.emit_at(
                    LintCode::NativeBranch,
                    at,
                    format!("{what}: expected `jmp`, found `{other}`"),
                );
                Err(())
            }
        }
    }

    /// Runs `n` instructions through the symbolic interpreter.
    fn sym(&mut self, n: usize) -> Result<(), ()> {
        for _ in 0..n {
            let (mi, at) = self.next_inst()?;
            if let Err((code, msg)) = self.st.step(&mi) {
                self.emit_at(code, at, format!("`{mi}`: {msg}"));
                return Err(());
            }
        }
        Ok(())
    }

    fn check_flags(&mut self, at: usize, want: &Flags) -> Result<(), ()> {
        if self.st.flags != *want {
            let got = self.st.flags.clone();
            self.emit_at(
                LintCode::NativeDataflow,
                at,
                format!("branch tests {got}, expected {want}"),
            );
            return Err(());
        }
        Ok(())
    }

    /// Closes a template window: the accumulated writes must match the IR
    /// instruction's denotation exactly (and nothing else may have been
    /// written). Resets the symbolic state for the next template.
    fn commit(
        &mut self,
        at: usize,
        frame: &[(i32, SVal)],
        env: &[(i32, SVal)],
        mem: &[(SVal, SVal)],
    ) -> Result<(), ()> {
        let norm = |writes: &[(i32, SVal)]| {
            let mut m: Vec<(i32, SVal)> = Vec::new();
            for (k, v) in writes {
                if let Some(slot) = m.iter_mut().find(|(mk, _)| mk == k) {
                    slot.1 = v.clone();
                } else {
                    m.push((*k, v.clone()));
                }
            }
            m.sort_by_key(|(k, _)| *k);
            m
        };
        let mut failed = Vec::new();
        let (got_f, want_f) = (norm(&self.st.frame), norm(frame));
        if got_f != want_f {
            failed.push(format!(
                "frame effect {{{}}}, expected {{{}}}",
                render_writes(&got_f),
                render_writes(&want_f)
            ));
        }
        let (got_e, want_e) = (norm(&self.st.env), norm(env));
        if got_e != want_e {
            failed.push(format!(
                "env effect {{{}}}, expected {{{}}}",
                render_writes(&got_e),
                render_writes(&want_e)
            ));
        }
        if self.st.mem != mem {
            let got: Vec<String> =
                self.st.mem.iter().map(|(a, v)| format!("mem[{a}] := {v}")).collect();
            let want: Vec<String> = mem.iter().map(|(a, v)| format!("mem[{a}] := {v}")).collect();
            failed.push(format!(
                "memory effect {{{}}}, expected {{{}}}",
                got.join(", "),
                want.join(", ")
            ));
        }
        self.st.reset();
        if failed.is_empty() {
            Ok(())
        } else {
            let msg = failed.join("; ");
            self.emit_at(LintCode::NativeDataflow, at, msg);
            Err(())
        }
    }

    /// Frame offset of an operand's home slot.
    fn off(&mut self, r: Reg) -> Result<i32, ()> {
        match r.as_phys() {
            Some(p) => Ok(self.fl.reg_off(p)),
            None => {
                let at = self.pos;
                self.emit_at(
                    LintCode::NativeShape,
                    at,
                    format!("operand {r} is not allocated to a physical register"),
                );
                Err(())
            }
        }
    }

    fn walk(&mut self) -> Result<(), ()> {
        self.walk_prologue()?;
        self.st.reset();
        for bi in 0..self.f.blocks.len() {
            self.block_offsets.push(self.pos);
            self.block = Some(BlockId(bi as u32));
            self.marker(format!("b{bi}:"));
            for ii in 0..self.f.blocks[bi].insts.len() {
                self.inst = Some(ii);
                let ins = &self.f.blocks[bi].insts[ii];
                self.marker(format!("{}", self.f.display_inst(&ins.inst)));
                // The `Ins` borrow of `self.f` is re-established inside.
                let ins = ins.clone();
                self.walk_ins(&ins, bi + 1)?;
            }
            self.inst = None;
        }
        self.block = None;
        self.walk_stubs()?;
        self.resolve_pending();
        Ok(())
    }

    fn walk_prologue(&mut self) -> Result<(), ()> {
        use LintCode::{NativeCounter as NC, NativeFrame as NF};
        self.marker(format!("prologue (frame {} bytes)", self.fl.size()));
        self.expect(MInst::PushR { reg: RBP }, NF, "prologue")?;
        self.expect(MInst::MovRR { dst: RBP, src: RSP }, NF, "prologue")?;
        self.expect(MInst::SubRI { reg: RSP, imm: self.fl.size() }, NF, "frame reservation")?;
        self.expect(MInst::IncM { base: RBX, disp: abi::OFF_DEPTH }, NC, "depth increment")?;
        self.expect(MInst::MovRM { dst: RAX, base: RBX, disp: abi::OFF_DEPTH }, NF, "depth check")?;
        self.expect(
            MInst::CmpRM { reg: RAX, base: RBX, disp: abi::OFF_MAX_DEPTH },
            NF,
            "depth check",
        )?;
        let (jat, ok_target) = self.expect_jcc(Cc::Be, "depth check")?;
        self.expect(
            MInst::MovMI { base: RBX, disp: abi::OFF_ERR_CODE, imm: err::DEPTH as i32 },
            NF,
            "depth fault",
        )?;
        let (at, exit) = self.expect_jmp("depth fault exit")?;
        self.pending.push((at, exit, TKind::Exit));
        if ok_target != self.pos as i64 {
            self.emit_at(
                LintCode::NativeBranch,
                jat,
                format!("depth-ok branch targets {ok_target:#x}, expected {:#x}", self.pos),
            );
            return Err(());
        }
        if self.fl.size() > 0 {
            self.expect(MInst::ZeroR { reg: RAX }, NF, "frame zeroing")?;
            self.expect(MInst::MovRR { dst: RDI, src: RSP }, NF, "frame zeroing")?;
            self.expect(
                MInst::MovRI { dst: RCX, imm: (self.fl.size() / 8) as i64 },
                NF,
                "frame zeroing count",
            )?;
            self.expect(MInst::RepStosq, NF, "frame zeroing")?;
        }
        for i in 0..self.fl.ni {
            self.expect(
                MInst::MovRM { dst: RAX, base: RBX, disp: abi::OFF_XFER_INT + 8 * i },
                NF,
                "argument transfer (int)",
            )?;
            self.expect(
                MInst::MovMR { base: RBP, disp: -8 * (i + 1), src: RAX },
                NF,
                "argument transfer (int)",
            )?;
        }
        for j in 0..self.fl.nf {
            self.expect(
                MInst::MovRM { dst: RAX, base: RBX, disp: abi::OFF_XFER_FLOAT + 8 * j },
                NF,
                "argument transfer (float)",
            )?;
            self.expect(
                MInst::MovMR { base: RBP, disp: -8 * (self.fl.ni + j + 1), src: RAX },
                NF,
                "argument transfer (float)",
            )?;
        }
        Ok(())
    }

    fn walk_stubs(&mut self) -> Result<(), ()> {
        use LintCode::{NativeCounter as NC, NativeFrame as NF};
        self.marker("stubs: fuel / div0 / oob / exit".to_string());
        let l_fuel = self.pos;
        self.expect(
            MInst::MovMI { base: RBX, disp: abi::OFF_ERR_CODE, imm: err::FUEL as i32 },
            NF,
            "fuel stub",
        )?;
        let (at, t) = self.expect_jmp("fuel stub exit")?;
        self.pending.push((at, t, TKind::Exit));
        let l_div0 = self.pos;
        self.expect(
            MInst::MovMI { base: RBX, disp: abi::OFF_ERR_CODE, imm: err::DIV_BY_ZERO as i32 },
            NF,
            "div-by-zero stub",
        )?;
        self.expect(
            MInst::MovMI { base: RBX, disp: abi::OFF_ERR_FUNC, imm: self.fid.0 as i32 },
            NF,
            "div-by-zero stub",
        )?;
        let (at, t) = self.expect_jmp("div-by-zero stub exit")?;
        self.pending.push((at, t, TKind::Exit));
        let l_oob = self.pos;
        self.expect(
            MInst::MovMR { base: RBX, disp: abi::OFF_ERR_ADDR, src: RAX },
            NF,
            "out-of-bounds stub",
        )?;
        self.expect(
            MInst::MovMI { base: RBX, disp: abi::OFF_ERR_CODE, imm: err::OUT_OF_BOUNDS as i32 },
            NF,
            "out-of-bounds stub",
        )?;
        self.expect(
            MInst::MovMI { base: RBX, disp: abi::OFF_ERR_FUNC, imm: self.fid.0 as i32 },
            NF,
            "out-of-bounds stub",
        )?;
        let l_exit = self.pos;
        self.expect(MInst::DecM { base: RBX, disp: abi::OFF_DEPTH }, NC, "depth decrement")?;
        self.expect(MInst::Leave, NF, "epilogue")?;
        self.expect(MInst::Ret, NF, "epilogue")?;
        if self.pos != self.end {
            let at = self.pos;
            let extra = self.end - self.pos;
            self.emit_at(
                LintCode::NativeFrame,
                at,
                format!("{extra} trailing bytes after the epilogue"),
            );
            return Err(());
        }
        // Resolve the deferred branch targets now that every landing site is
        // known.
        let pend = std::mem::take(&mut self.pending);
        for (at, target, kind) in pend {
            let want = match kind {
                TKind::Fuel => l_fuel as i64,
                TKind::Div0 => l_div0 as i64,
                TKind::Oob => l_oob as i64,
                TKind::Exit => l_exit as i64,
                TKind::Block(b) => self.block_offsets[b] as i64,
            };
            if target != want {
                self.emit_at(
                    LintCode::NativeBranch,
                    at,
                    format!("targets {target:#x}, expected {} at {want:#x}", kind.describe()),
                );
            }
        }
        Ok(())
    }

    fn resolve_pending(&mut self) {
        // Targets are resolved inside `walk_stubs`; nothing left to do. Kept
        // as an explicit phase marker for readers of `walk`.
    }

    /// `sub r13, 1; jb fuel_stub`, then the spill-tag bump of a tagged
    /// instruction. The borrow of the `sub` is what signals empty fuel.
    fn counter_prelude(&mut self, tag: SpillTag) -> Result<(), ()> {
        use LintCode::NativeCounter as NC;
        self.expect(MInst::SubRI { reg: R13, imm: 1 }, NC, "fuel decrement")?;
        let (cc, at, t) = self.expect_jcc_any("fuel-exhausted branch")?;
        if cc != Cc::B {
            let msg = format!("fuel-exhausted branch: expected jb, found j{}", cc.mnemonic());
            self.emit_at(NC, at, msg);
            return Err(());
        }
        self.pending.push((at, t, TKind::Fuel));
        if tag != SpillTag::None {
            self.expect(
                MInst::IncM { base: RBX, disp: abi::OFF_BY_TAG + 8 * abi::tag_index(tag) },
                NC,
                "by-tag counter",
            )?;
        }
        Ok(())
    }

    fn walk_ins(&mut self, ins: &Ins, next_block: usize) -> Result<(), ()> {
        self.counter_prelude(ins.tag)?;
        let at = self.pos;
        match &ins.inst {
            Inst::Op { op, dst, srcs } => self.walk_op(*op, *dst, srcs)?,
            Inst::MovI { dst, imm } => {
                let d = self.off(*dst)?;
                self.sym(2)?;
                self.commit(at, &[(d, SVal::Imm(*imm))], &[], &[])?;
            }
            Inst::MovF { dst, imm } => {
                let d = self.off(*dst)?;
                self.sym(2)?;
                self.commit(at, &[(d, SVal::Imm(imm.to_bits() as i64))], &[], &[])?;
            }
            Inst::Mov { dst, src } => {
                let (d, s) = (self.off(*dst)?, self.off(*src)?);
                self.expect(
                    MInst::IncM { base: RBX, disp: abi::OFF_MOVES },
                    LintCode::NativeCounter,
                    "move counter",
                )?;
                self.sym(2)?;
                self.commit(at, &[(d, SVal::Cell(s))], &[], &[])?;
            }
            Inst::Load { dst, base, offset } => {
                let d = self.off(*dst)?;
                self.expect(
                    MInst::IncM { base: RBX, disp: abi::OFF_MEMORY_OPS },
                    LintCode::NativeCounter,
                    "memory-op counter",
                )?;
                let addr = self.walk_address_check(*base, *offset)?;
                self.sym(2)?;
                self.commit(at, &[(d, SVal::MemWord(Box::new(addr)))], &[], &[])?;
            }
            Inst::Store { src, base, offset } => {
                let s = self.off(*src)?;
                self.expect(
                    MInst::IncM { base: RBX, disp: abi::OFF_MEMORY_OPS },
                    LintCode::NativeCounter,
                    "memory-op counter",
                )?;
                let addr = self.walk_address_check(*base, *offset)?;
                self.sym(2)?;
                self.commit(at, &[], &[], &[(addr, SVal::Cell(s))])?;
            }
            Inst::SpillLoad { dst, temp } => {
                let slot = match self.f.spill_slots.get(temp.index()).copied().flatten() {
                    Some(s) => s,
                    None => {
                        self.emit_at(
                            LintCode::NativeShape,
                            at,
                            "spill load of a temp without a slot".to_string(),
                        );
                        return Err(());
                    }
                };
                let (d, s) = (self.off(*dst)?, self.fl.slot_off(slot.0 as i32));
                self.expect(
                    MInst::IncM { base: RBX, disp: abi::OFF_MEMORY_OPS },
                    LintCode::NativeCounter,
                    "memory-op counter",
                )?;
                self.sym(2)?;
                self.commit(at, &[(d, SVal::Cell(s))], &[], &[])?;
            }
            Inst::SpillStore { src, temp } => {
                let slot = match self.f.spill_slots.get(temp.index()).copied().flatten() {
                    Some(s) => s,
                    None => {
                        self.emit_at(
                            LintCode::NativeShape,
                            at,
                            "spill store of a temp without a slot".to_string(),
                        );
                        return Err(());
                    }
                };
                let (s, d) = (self.off(*src)?, self.fl.slot_off(slot.0 as i32));
                self.expect(
                    MInst::IncM { base: RBX, disp: abi::OFF_MEMORY_OPS },
                    LintCode::NativeCounter,
                    "memory-op counter",
                )?;
                self.sym(2)?;
                self.commit(at, &[(d, SVal::Cell(s))], &[], &[])?;
            }
            Inst::Call { callee, arg_regs, ret_regs } => {
                self.walk_call(*callee, arg_regs, ret_regs)?;
            }
            Inst::Jump { target } => {
                if target.index() != next_block {
                    let (jat, t) = self.expect_jmp("jump")?;
                    self.pending.push((jat, t, TKind::Block(target.index())));
                }
                self.commit(at, &[], &[], &[])?;
            }
            Inst::Branch { cond, src, then_tgt, else_tgt } => {
                let s = self.off(*src)?;
                self.sym(2)?;
                let want_cc = match cond {
                    Cond::Eq => Cc::E,
                    Cond::Ne => Cc::Ne,
                    Cond::Lt => Cc::L,
                    Cond::Le => Cc::Le,
                    Cond::Gt => Cc::G,
                    Cond::Ge => Cc::Ge,
                };
                let (cc, jat, t) = self.expect_jcc_any("branch")?;
                if cc != want_cc {
                    self.emit_at(
                        LintCode::NativeBranch,
                        jat,
                        format!(
                            "branch uses j{}, but `{cond:?}` requires j{}",
                            cc.mnemonic(),
                            want_cc.mnemonic()
                        ),
                    );
                    return Err(());
                }
                self.check_flags(jat, &Flags::Test(SVal::Cell(s)))?;
                self.pending.push((jat, t, TKind::Block(then_tgt.index())));
                if else_tgt.index() != next_block {
                    let (jat2, t2) = self.expect_jmp("branch else edge")?;
                    self.pending.push((jat2, t2, TKind::Block(else_tgt.index())));
                }
                self.commit(at, &[], &[], &[])?;
            }
            Inst::Ret { ret_regs } => {
                let n = (self.fl.ni + self.fl.nf) as usize;
                self.sym(2 * n + 1)?;
                let (jat, t) = self.expect_jmp("return exit jump")?;
                self.pending.push((jat, t, TKind::Exit));
                let mut env = Vec::with_capacity(n + 1);
                for i in 0..self.fl.ni {
                    env.push((abi::OFF_XFER_INT + 8 * i, SVal::Cell(-8 * (i + 1))));
                }
                for j in 0..self.fl.nf {
                    env.push((abi::OFF_XFER_FLOAT + 8 * j, SVal::Cell(-8 * (self.fl.ni + j + 1))));
                }
                let ret_idx = ret_regs
                    .iter()
                    .find(|p| p.class == RegClass::Int)
                    .map(|p| p.index as i64)
                    .unwrap_or(-1);
                env.push((abi::OFF_LAST_RET, SVal::Imm(ret_idx)));
                self.commit(at, &[], &env, &[])?;
            }
        }
        Ok(())
    }

    /// The bounds-check preamble of `Load`/`Store`: computes the effective
    /// word address into a register, compares against the memory size, and
    /// branches to the OOB stub. Returns the symbolic address.
    fn walk_address_check(&mut self, base: Reg, offset: i32) -> Result<SVal, ()> {
        let base_off = self.off(base)?;
        self.sym(1)?;
        let addr = if offset != 0 {
            self.sym(1)?;
            bin(OpCode::Add, SVal::Cell(base_off), SVal::Imm(offset as i64))
        } else {
            SVal::Cell(base_off)
        };
        self.sym(1)?; // cmp addr, r14
        let (jat, t) = self.expect_jcc(Cc::Ae, "bounds check")?;
        self.check_flags(jat, &Flags::Cmp(addr.clone(), SVal::MemWords))?;
        self.pending.push((jat, t, TKind::Oob));
        // The OOB stub publishes rax as the faulting address; the address
        // must therefore be *in* rax at the branch.
        if self.st.gpr(RAX) != addr {
            let got = self.st.gpr(RAX);
            self.emit_at(
                LintCode::NativeDataflow,
                jat,
                format!("faulting address must be in rax at the bounds check (rax = {got})"),
            );
            return Err(());
        }
        Ok(addr)
    }

    fn walk_op(&mut self, op: OpCode, dst: Reg, srcs: &[Reg]) -> Result<(), ()> {
        use OpCode::*;
        let at = self.pos;
        let d = self.off(dst)?;
        let s0 = self.off(srcs[0])?;
        match op {
            Add | Sub | Mul | And | Or | Xor | Shl | Shr => {
                let s1 = self.off(srcs[1])?;
                self.sym(4)?;
                self.commit(at, &[(d, bin(op, SVal::Cell(s0), SVal::Cell(s1)))], &[], &[])
            }
            CmpEq | CmpLt | CmpLe => {
                let s1 = self.off(srcs[1])?;
                self.sym(6)?;
                self.commit(at, &[(d, bin(op, SVal::Cell(s0), SVal::Cell(s1)))], &[], &[])
            }
            Div | Rem => {
                let s1 = self.off(srcs[1])?;
                self.walk_div(op == Rem, d, s0, s1)
            }
            Neg | Not => {
                self.sym(3)?;
                self.commit(at, &[(d, un(op, SVal::Cell(s0)))], &[], &[])
            }
            FAdd | FSub | FMul | FDiv => {
                let s1 = self.off(srcs[1])?;
                self.sym(4)?;
                self.commit(at, &[(d, bin(op, SVal::Cell(s0), SVal::Cell(s1)))], &[], &[])
            }
            FSqrt => {
                self.sym(3)?;
                self.commit(at, &[(d, un(FSqrt, SVal::Cell(s0)))], &[], &[])
            }
            FNeg => {
                self.sym(4)?;
                self.commit(at, &[(d, bin(Xor, SVal::Cell(s0), SVal::Imm(i64::MIN)))], &[], &[])
            }
            FAbs => {
                self.sym(4)?;
                self.commit(at, &[(d, bin(And, SVal::Cell(s0), SVal::Imm(i64::MAX)))], &[], &[])
            }
            FCmpEq => {
                let s1 = self.off(srcs[1])?;
                self.sym(8)?;
                self.commit(at, &[(d, bin(FCmpEq, SVal::Cell(s0), SVal::Cell(s1)))], &[], &[])
            }
            FCmpLt | FCmpLe => {
                let s1 = self.off(srcs[1])?;
                self.sym(6)?;
                self.commit(at, &[(d, bin(op, SVal::Cell(s0), SVal::Cell(s1)))], &[], &[])
            }
            IntToFloat => {
                self.sym(3)?;
                self.commit(at, &[(d, un(IntToFloat, SVal::Cell(s0)))], &[], &[])
            }
            FloatToInt => self.walk_ftoi(at, d, s0),
        }
    }

    /// `FloatToInt` calls the out-of-line saturating-cast helper.
    fn walk_ftoi(&mut self, at: usize, d: i32, s0: i32) -> Result<(), ()> {
        self.sym(2)?; // mov rdi, [rbp+s0]; mov rax, <helper>
        let (mi, cat) = self.next_inst()?;
        let reg = match mi {
            MInst::CallR { reg } => reg,
            other => {
                self.emit_at(
                    LintCode::NativeCall,
                    cat,
                    format!("expected an indirect helper call, found `{other}`"),
                );
                return Err(());
            }
        };
        if self.st.gpr(reg) != SVal::Imm(abi::ftoi_address() as i64) {
            let got = self.st.gpr(reg);
            self.emit_at(
                LintCode::NativeCall,
                cat,
                format!("call through {} = {got}, expected the float-to-int helper", gpr_name(reg)),
            );
            return Err(());
        }
        if self.st.gpr(RDI) != SVal::Cell(s0) {
            let got = self.st.gpr(RDI);
            self.emit_at(
                LintCode::NativeCall,
                cat,
                format!("helper argument rdi = {got}, expected frame[{s0}]"),
            );
            return Err(());
        }
        self.st.helper_call();
        self.sym(1)?; // store the result
        self.commit(at, &[(d, SVal::HelperRet)], &[], &[])
    }

    /// The division diamond: zero-divisor fault edge, the
    /// `i64::MIN / -1` wrap path, and the `cqo`/`idiv` main path joining at
    /// the final store.
    fn walk_div(&mut self, is_rem: bool, d: i32, s0: i32, s1: i32) -> Result<(), ()> {
        let at = self.pos;
        self.sym(3)?; // load s0, load s1, test divisor
        let (jat, t) = self.expect_jcc(Cc::E, "div-by-zero guard")?;
        self.check_flags(jat, &Flags::Test(SVal::Cell(s1)))?;
        self.pending.push((jat, t, TKind::Div0));
        self.sym(1)?; // cmp divisor, -1
        let (jat2, l_do) = self.expect_jcc(Cc::Ne, "wrap guard (divisor)")?;
        self.check_flags(jat2, &Flags::Cmp(SVal::Cell(s1), SVal::Imm(-1)))?;
        self.sym(2)?; // mov MIN, cmp dividend
        let (jat3, l_do2) = self.expect_jcc(Cc::Ne, "wrap guard (dividend)")?;
        self.check_flags(jat3, &Flags::Cmp(SVal::Cell(s0), SVal::Imm(i64::MIN)))?;
        if l_do != l_do2 {
            self.emit_at(
                LintCode::NativeBranch,
                jat3,
                format!("wrap guards disagree on the division entry ({l_do:#x} vs {l_do2:#x})"),
            );
            return Err(());
        }
        // Wrap path: MIN / -1 wraps to MIN (the dividend, still in place);
        // MIN % -1 is 0.
        let rax_entry = self.st.gpr(RAX);
        if is_rem {
            self.sym(1)?; // zero the result register
        }
        let wrap = self.st.gpr(RAX);
        let want_wrap = if is_rem { SVal::Imm(0) } else { rax_entry.clone() };
        if wrap != want_wrap {
            self.emit_at(
                LintCode::NativeDataflow,
                self.pos,
                format!("wrap-path result is {wrap}, expected {want_wrap}"),
            );
            return Err(());
        }
        let (_, l_done) = self.expect_jmp("wrap join")?;
        if l_do != self.pos as i64 {
            self.emit_at(
                LintCode::NativeBranch,
                self.pos,
                format!("division entry expected here ({:#x}), guards target {l_do:#x}", self.pos),
            );
            return Err(());
        }
        // Main path: the zeroing above did not execute here.
        self.st.set_raw(RAX, rax_entry.clone());
        let (mi, cat) = self.next_inst()?;
        if mi != MInst::Cqo {
            self.emit_at(LintCode::NativeShape, cat, format!("expected `cqo`, found `{mi}`"));
            return Err(());
        }
        self.st.set_raw(RDX, SVal::Junk);
        let (mi, iat) = self.next_inst()?;
        let divisor = match mi {
            MInst::IdivR { reg } => self.st.gpr(reg),
            other => {
                self.emit_at(
                    LintCode::NativeShape,
                    iat,
                    format!("expected `idiv`, found `{other}`"),
                );
                return Err(());
            }
        };
        self.st.set_raw(RAX, bin(OpCode::Div, rax_entry.clone(), divisor.clone()));
        self.st.set_raw(RDX, bin(OpCode::Rem, rax_entry, divisor));
        self.st.flags = Flags::Junk;
        if is_rem {
            self.sym(1)?; // move the remainder into the result register
        }
        if l_done != self.pos as i64 {
            self.emit_at(
                LintCode::NativeBranch,
                self.pos,
                format!("join expected here ({:#x}), wrap path targets {l_done:#x}", self.pos),
            );
            return Err(());
        }
        self.sym(1)?; // final store
        let op = if is_rem { OpCode::Rem } else { OpCode::Div };
        self.commit(at, &[(d, bin(op, SVal::Cell(s0), SVal::Cell(s1)))], &[], &[])
    }

    fn walk_call(
        &mut self,
        callee: Callee,
        arg_regs: &[lsra_ir::PhysReg],
        ret_regs: &[lsra_ir::PhysReg],
    ) -> Result<(), ()> {
        use LintCode::{NativeCall as NCall, NativeCounter as NC};
        let at = self.pos;
        self.expect(MInst::IncM { base: RBX, disp: abi::OFF_CALLS }, NC, "call counter")?;
        match callee {
            Callee::Ext(ext) => {
                let wanted = match ext {
                    ExtFn::GetChar => None,
                    ExtFn::PutFloat => Some(RegClass::Float),
                    _ => Some(RegClass::Int),
                };
                let arg_off = match wanted {
                    None => None,
                    Some(class) => match arg_regs.iter().find(|p| p.class == class) {
                        Some(p) => Some(self.fl.reg_off(*p)),
                        None => {
                            self.emit_at(
                                NCall,
                                at,
                                format!("external call to {} has no argument", ext.name()),
                            );
                            return Err(());
                        }
                    },
                };
                if arg_off.is_some() {
                    self.sym(1)?; // stage the argument in rsi
                }
                self.sym(2)?; // mov rdi, rbx; mov rax, <helper>
                let (mi, cat) = self.next_inst()?;
                let reg = match mi {
                    MInst::CallR { reg } => reg,
                    other => {
                        self.emit_at(
                            NCall,
                            cat,
                            format!("expected an indirect helper call, found `{other}`"),
                        );
                        return Err(());
                    }
                };
                if self.st.gpr(reg) != SVal::Imm(abi::helper_address(ext) as i64) {
                    let got = self.st.gpr(reg);
                    self.emit_at(
                        NCall,
                        cat,
                        format!(
                            "call through {} = {got}, expected the {} helper",
                            gpr_name(reg),
                            ext.name()
                        ),
                    );
                    return Err(());
                }
                if self.st.gpr(RDI) != SVal::EnvPtr {
                    let got = self.st.gpr(RDI);
                    self.emit_at(NCall, cat, format!("helper env argument rdi = {got}"));
                    return Err(());
                }
                if let Some(s) = arg_off {
                    if self.st.gpr(RSI) != SVal::Cell(s) {
                        let got = self.st.gpr(RSI);
                        self.emit_at(
                            NCall,
                            cat,
                            format!("helper argument rsi = {got}, expected frame[{s}]"),
                        );
                        return Err(());
                    }
                }
                self.st.helper_call();
                if ext == ExtFn::GetChar {
                    let ret = match ret_regs.first() {
                        Some(p) => *p,
                        None => {
                            self.emit_at(
                                NCall,
                                at,
                                "getchar without a return register".to_string(),
                            );
                            return Err(());
                        }
                    };
                    let doff = self.fl.reg_off(ret);
                    self.sym(1)?; // store the result
                    self.commit(at, &[(doff, SVal::HelperRet)], &[], &[])?;
                } else {
                    self.commit(at, &[], &[], &[])?;
                }
            }
            Callee::Func(id) => {
                // Fully structural: the transfer-file protocol stages each
                // argument through rax in declaration order, propagates
                // callee faults, then copies each declared return register.
                for &p in arg_regs {
                    let s = self.fl.reg_off(p);
                    self.expect(
                        MInst::MovRM { dst: RAX, base: RBP, disp: s },
                        NCall,
                        "call argument staging",
                    )?;
                    self.expect(
                        MInst::MovMR { base: RBX, disp: abi::xfer_off(p), src: RAX },
                        NCall,
                        "call argument staging",
                    )?;
                }
                let (mi, cat) = self.next_inst()?;
                match mi {
                    MInst::CallRel { rel } => {
                        let target = self.pos as i64 + rel as i64;
                        self.calls.push((cat, target, id));
                    }
                    other => {
                        self.emit_at(NCall, cat, format!("expected `call rel32`, found `{other}`"));
                        return Err(());
                    }
                }
                self.expect(
                    MInst::CmpMI8 { base: RBX, disp: abi::OFF_ERR_CODE, imm: 0 },
                    NCall,
                    "callee fault propagation",
                )?;
                let (jat, t) = self.expect_jcc(Cc::Ne, "callee fault propagation")?;
                self.pending.push((jat, t, TKind::Exit));
                for &p in ret_regs {
                    let doff = self.fl.reg_off(p);
                    self.expect(
                        MInst::MovRM { dst: RAX, base: RBX, disp: abi::xfer_off(p) },
                        NCall,
                        "call return copy",
                    )?;
                    self.expect(
                        MInst::MovMR { base: RBP, disp: doff, src: RAX },
                        NCall,
                        "call return copy",
                    )?;
                }
                self.commit(at, &[], &[], &[])?;
            }
        }
        Ok(())
    }
}

fn render_writes(writes: &[(i32, SVal)]) -> String {
    let parts: Vec<String> = writes.iter().map(|(k, v)| format!("[{k}] := {v}")).collect();
    parts.join(", ")
}

/// Result of walking one function: diagnostics plus the side tables the
/// module pass and the disassembler consume.
pub(crate) struct FnWalk {
    pub diags: Vec<Diagnostic>,
    pub calls: Vec<(usize, i64, FuncId)>,
    pub markers: Vec<(usize, String)>,
}

pub(crate) fn walk_function(
    code: &[u8],
    f: &Function,
    fid: FuncId,
    spec: &MachineSpec,
    range: (usize, usize),
) -> FnWalk {
    let mut w = FnWalker::new(code, f, fid, spec, range);
    let _ = w.walk();
    FnWalk { diags: w.diags, calls: w.calls, markers: w.markers }
}

/// The fixed entry-trampoline shape; returns `(rel32-call target, end of
/// trampoline)` on success.
pub(crate) fn walk_trampoline(
    code: &[u8],
    entry_offset: usize,
    diags: &mut Vec<Diagnostic>,
    markers: &mut Vec<(usize, String)>,
) -> Option<(i64, usize)> {
    markers.push((entry_offset, "entry trampoline".to_string()));
    let expected = [
        MInst::PushR { reg: RBP },
        MInst::MovRR { dst: RBP, src: RSP },
        MInst::PushR { reg: RBX },
        MInst::PushR { reg: R12 },
        MInst::PushR { reg: R13 },
        MInst::PushR { reg: R14 },
        MInst::MovRR { dst: RBX, src: RDI },
        MInst::MovRM { dst: R12, base: RBX, disp: abi::OFF_MEM_BASE },
        MInst::MovRM { dst: R14, base: RBX, disp: abi::OFF_MEM_WORDS },
        MInst::MovRM { dst: R13, base: RBX, disp: abi::OFF_FUEL },
    ];
    let tail = [
        MInst::MovMR { base: RBX, disp: abi::OFF_FUEL, src: R13 },
        MInst::PopR { reg: R14 },
        MInst::PopR { reg: R13 },
        MInst::PopR { reg: R12 },
        MInst::PopR { reg: RBX },
        MInst::PopR { reg: RBP },
        MInst::Ret,
    ];
    let mut pos = entry_offset;
    let fail = |diags: &mut Vec<Diagnostic>, at: usize, code: LintCode, message: String| {
        diags.push(Diagnostic {
            code,
            func: "<trampoline>".to_string(),
            block: None,
            inst: None,
            line: None,
            message: format!("at +{at:#x}: {message}"),
        });
    };
    let step = |pos: &mut usize, diags: &mut Vec<Diagnostic>| -> Option<(MInst, usize)> {
        let at = *pos;
        match decode_one(code, *pos) {
            Ok((mi, len)) => {
                *pos += len;
                Some((mi, at))
            }
            Err(e) => {
                fail(diags, at, LintCode::NativeDecode, e.what);
                None
            }
        }
    };
    for want in expected {
        let (got, at) = step(&mut pos, diags)?;
        if got != want {
            fail(
                diags,
                at,
                LintCode::NativeFrame,
                format!("trampoline: expected `{want}`, found `{got}`"),
            );
            return None;
        }
    }
    let (got, at) = step(&mut pos, diags)?;
    let target = match got {
        MInst::CallRel { rel } => pos as i64 + rel as i64,
        other => {
            fail(
                diags,
                at,
                LintCode::NativeFrame,
                format!("trampoline: expected the entry call, found `{other}`"),
            );
            return None;
        }
    };
    for want in tail {
        let (got, at) = step(&mut pos, diags)?;
        if got != want {
            fail(
                diags,
                at,
                LintCode::NativeFrame,
                format!("trampoline: expected `{want}`, found `{got}`"),
            );
            return None;
        }
    }
    Some((target, pos))
}

/// Statically verifies a compiled image against its allocated functions.
///
/// This is the raw-parts form of [`verify_module`]: it takes the code bytes
/// and layout tables directly, so callers can verify images that have been
/// deliberately corrupted (mutation testing) or reconstructed from disk.
/// `entry` selects which function the trampoline must call.
pub fn verify_image(
    funcs: &[Function],
    entry: FuncId,
    spec: &MachineSpec,
    code: &[u8],
    entry_offset: usize,
    func_ranges: &[(usize, usize)],
) -> LintReport {
    let mut report = LintReport::new();
    let mut markers = Vec::new();
    let module_diag = |code: LintCode, message: String| Diagnostic {
        code,
        func: "<module>".to_string(),
        block: None,
        inst: None,
        line: None,
        message,
    };
    if func_ranges.len() != funcs.len() {
        report.diags.push(module_diag(
            LintCode::NativeFrame,
            format!("{} functions but {} code ranges", funcs.len(), func_ranges.len()),
        ));
        return report;
    }
    if entry.index() >= funcs.len() {
        report.diags.push(module_diag(
            LintCode::NativeFrame,
            format!("entry {} out of range ({} functions)", entry.index(), funcs.len()),
        ));
        return report;
    }
    // Trampoline shape and entry linkage.
    let tramp = walk_trampoline(code, entry_offset, &mut report.diags, &mut markers);
    if let Some((target, end)) = tramp {
        let want = func_ranges[entry.index()].0 as i64;
        if target != want {
            report.diags.push(module_diag(
                LintCode::NativeBranch,
                format!(
                    "entry call targets {target:#x}, expected function {} at {want:#x}",
                    entry.index()
                ),
            ));
        }
        // Coverage: functions must tile the image exactly, starting right
        // after the trampoline.
        let mut cursor = end;
        for (i, &(s, e)) in func_ranges.iter().enumerate() {
            if s != cursor || e < s || e > code.len() {
                report.diags.push(module_diag(
                    LintCode::NativeFrame,
                    format!(
                        "function {i} occupies {s:#x}..{e:#x}, expected it to start at {cursor:#x}"
                    ),
                ));
            }
            cursor = e;
        }
        if cursor != code.len() {
            report.diags.push(module_diag(
                LintCode::NativeFrame,
                format!("function ranges cover {cursor:#x} bytes, the image has {:#x}", code.len()),
            ));
        }
    }
    // Per-function walks, collecting intra-module call sites.
    let mut calls = Vec::new();
    for (i, f) in funcs.iter().enumerate() {
        let walk = walk_function(code, f, FuncId(i as u32), spec, func_ranges[i]);
        report.diags.extend(walk.diags);
        calls.extend(walk.calls.into_iter().map(|(at, t, callee)| (i, at, t, callee)));
    }
    // Module-level call linkage.
    for (caller, at, target, callee) in calls {
        if callee.index() >= func_ranges.len() {
            report.diags.push(module_diag(
                LintCode::NativeCall,
                format!("function {caller} calls out-of-range function {}", callee.index()),
            ));
            continue;
        }
        let want = func_ranges[callee.index()].0 as i64;
        if target != want {
            report.diags.push(Diagnostic {
                code: LintCode::NativeBranch,
                func: funcs[caller].name.clone(),
                block: None,
                inst: None,
                line: None,
                message: format!(
                    "at +{at:#x}: call targets {target:#x}, expected function {} at {want:#x}",
                    callee.index()
                ),
            });
        }
    }
    report.sort();
    report
}

/// Statically verifies a [`CodeBuffer`] produced by
/// [`lsra_jit::compile_module`] against the module it was compiled from.
///
/// Returns an empty report when every function's machine code provably
/// implements its allocated IR under the contracts of `DESIGN.md` §15; all
/// diagnostics use the error-severity `N0xx` codes.
pub fn verify_module(module: &Module, spec: &MachineSpec, buf: &CodeBuffer) -> LintReport {
    verify_image(
        &module.funcs,
        module.entry,
        spec,
        buf.encoding(),
        buf.entry_offset(),
        buf.func_ranges(),
    )
}

/// Statically verifies a [`CodeBuffer`] produced by
/// [`lsra_jit::compile_function`] against the single function it holds.
pub fn verify_function(f: &Function, spec: &MachineSpec, buf: &CodeBuffer) -> LintReport {
    verify_image(
        std::slice::from_ref(f),
        FuncId(0),
        spec,
        buf.encoding(),
        buf.entry_offset(),
        buf.func_ranges(),
    )
}
