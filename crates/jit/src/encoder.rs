//! A minimal x86-64 instruction encoder.
//!
//! Emits exactly the subset of x86-64 the lowering (the private `lower`
//! module) needs: 64-bit ALU operations, scalar-double SSE2, memory
//! operands with a 32-bit displacement (plus one scaled-index form for data
//! memory), byte condition sets, and rel32 control flow with label fixups. There is no
//! disassembler; tests compare emitted bytes against hand-assembled
//! patterns, which is the crate's `encoding` test surface.
//!
//! Encoding choices are deliberately uniform rather than minimal:
//! register-indirect operands always use a 32-bit displacement, so the same
//! logical operation always produces the same byte shape regardless of
//! offset magnitude. The only size optimisation kept is `mov r64, imm`
//! (sign-extended imm32 vs. full imm64), because immediate loads are the
//! most frequent instruction the lowering emits.

/// A 64-bit general-purpose register (hardware encoding 0-15).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Gpr(pub u8);

/// `rax` — scratch lane 0, division dividend/quotient.
pub const RAX: Gpr = Gpr(0);
/// `rcx` — scratch lane 1, shift count, division divisor.
pub const RCX: Gpr = Gpr(1);
/// `rdx` — scratch lane 2, division remainder.
pub const RDX: Gpr = Gpr(2);
/// `rbx` — callee-saved; the lowering pins the `Env` pointer here.
pub const RBX: Gpr = Gpr(3);
/// `rsp` — stack pointer.
pub const RSP: Gpr = Gpr(4);
/// `rbp` — frame base; virtual registers and spill slots live below it.
pub const RBP: Gpr = Gpr(5);
/// `rsi` — second SysV argument register (helper calls).
pub const RSI: Gpr = Gpr(6);
/// `rdi` — first SysV argument register (helper calls, `rep stosq`).
pub const RDI: Gpr = Gpr(7);
/// `r12` — callee-saved; the lowering pins the data-memory base here.
pub const R12: Gpr = Gpr(12);
/// `r13` — callee-saved; saved/restored only for stack alignment.
pub const R13: Gpr = Gpr(13);
/// `r14` — callee-saved; the lowering pins the memory word count here.
pub const R14: Gpr = Gpr(14);

/// An SSE register (hardware encoding 0-15).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Xmm(pub u8);

/// `xmm0` — float scratch lane 0.
pub const XMM0: Xmm = Xmm(0);
/// `xmm1` — float scratch lane 1.
pub const XMM1: Xmm = Xmm(1);

/// A condition code for `setcc`/`jcc` (the low nibble of the opcode).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Cc {
    /// Below (unsigned <, CF=1).
    B = 2,
    /// Above or equal (unsigned >=, CF=0).
    Ae = 3,
    /// Equal (ZF=1).
    E = 4,
    /// Not equal (ZF=0).
    Ne = 5,
    /// Below or equal (unsigned <=).
    Be = 6,
    /// Above (unsigned >).
    A = 7,
    /// Sign (SF=1).
    S = 8,
    /// No sign (SF=0).
    Ns = 9,
    /// Parity (PF=1; unordered after `ucomisd`).
    P = 10,
    /// No parity (PF=0; ordered after `ucomisd`).
    Np = 11,
    /// Less (signed <).
    L = 12,
    /// Greater or equal (signed >=).
    Ge = 13,
    /// Less or equal (signed <=).
    Le = 14,
    /// Greater (signed >).
    G = 15,
}

impl Cc {
    /// Every condition code, in nibble order.
    pub const ALL: [Cc; 14] = [
        Cc::B,
        Cc::Ae,
        Cc::E,
        Cc::Ne,
        Cc::Be,
        Cc::A,
        Cc::S,
        Cc::Ns,
        Cc::P,
        Cc::Np,
        Cc::L,
        Cc::Ge,
        Cc::Le,
        Cc::G,
    ];

    /// The condition code with opcode nibble `n`, if one exists (the
    /// decoder's inverse of `jcc`/`setcc` emission).
    pub fn from_nibble(n: u8) -> Option<Cc> {
        Cc::ALL.into_iter().find(|c| *c as u8 == n)
    }

    /// The standard mnemonic suffix (`e`, `ne`, `l`, ...).
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cc::B => "b",
            Cc::Ae => "ae",
            Cc::E => "e",
            Cc::Ne => "ne",
            Cc::Be => "be",
            Cc::A => "a",
            Cc::S => "s",
            Cc::Ns => "ns",
            Cc::P => "p",
            Cc::Np => "np",
            Cc::L => "l",
            Cc::Ge => "ge",
            Cc::Le => "le",
            Cc::G => "g",
        }
    }
}

/// A forward-referencable position in the code stream.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Label(usize);

/// The instruction stream under construction.
#[derive(Debug, Default)]
pub struct Asm {
    code: Vec<u8>,
    /// Bound byte offset per label (`usize::MAX` while unbound).
    labels: Vec<usize>,
    /// `(rel32 position, target)` pairs patched by [`Asm::finish`].
    fixups: Vec<(usize, Label)>,
}

impl Asm {
    /// Creates an empty stream.
    pub fn new() -> Self {
        Asm::default()
    }

    /// Current length in bytes (the offset the next instruction lands at).
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// True when nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Emitted bytes so far (fixups unpatched until [`Asm::finish`]).
    pub fn bytes(&self) -> &[u8] {
        &self.code
    }

    /// Creates a fresh unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(usize::MAX);
        Label(self.labels.len() - 1)
    }

    /// Binds `l` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if `l` is already bound.
    pub fn bind(&mut self, l: Label) {
        assert_eq!(self.labels[l.0], usize::MAX, "label bound twice");
        self.labels[l.0] = self.code.len();
    }

    /// Patches every recorded rel32 against its bound label and returns the
    /// finished byte stream.
    ///
    /// # Panics
    ///
    /// Panics if any referenced label was never bound.
    pub fn finish(mut self) -> Vec<u8> {
        for &(pos, l) in &self.fixups {
            let target = self.labels[l.0];
            assert_ne!(target, usize::MAX, "unbound label {l:?}");
            let rel = target as i64 - (pos as i64 + 4);
            self.code[pos..pos + 4].copy_from_slice(&(rel as i32).to_le_bytes());
        }
        self.code
    }

    fn u8(&mut self, b: u8) {
        self.code.push(b);
    }

    fn i32(&mut self, v: i32) {
        self.code.extend_from_slice(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.code.extend_from_slice(&v.to_le_bytes());
    }

    /// REX prefix with W=1. `r` is the ModRM reg operand, `b` the rm/base.
    fn rex_w(&mut self, r: u8, b: u8) {
        self.u8(0x48 | ((r >> 3) << 2) | (b >> 3));
    }

    /// REX prefix with W=1 and an index register (for SIB forms).
    fn rex_wx(&mut self, r: u8, x: u8, b: u8) {
        self.u8(0x48 | ((r >> 3) << 2) | ((x >> 3) << 1) | (b >> 3));
    }

    fn modrm(&mut self, md: u8, reg: u8, rm: u8) {
        self.u8((md << 6) | ((reg & 7) << 3) | (rm & 7));
    }

    /// ModRM (+SIB) for `[base + disp32]`. Always emits the disp32 form so
    /// every offset encodes identically; `rsp`/`r12` bases get the required
    /// SIB byte.
    fn mem(&mut self, reg: u8, base: Gpr, disp: i32) {
        if base.0 & 7 == 4 {
            self.modrm(2, reg, 4);
            self.u8(0x24); // SIB: scale=1, no index, base=rsp/r12
        } else {
            self.modrm(2, reg, base.0);
        }
        self.i32(disp);
    }

    /// ModRM+SIB for `[base + index*8]` (no displacement).
    fn mem_index8(&mut self, reg: u8, base: Gpr, index: Gpr) {
        debug_assert!(base.0 & 7 != 5, "rbp/r13 base needs disp");
        debug_assert!(index.0 & 7 != 4, "rsp cannot index");
        self.modrm(0, reg, 4);
        self.u8((3 << 6) | ((index.0 & 7) << 3) | (base.0 & 7));
    }

    // ---- moves ----

    /// `mov dst, src` (64-bit register-register).
    pub fn mov_rr(&mut self, dst: Gpr, src: Gpr) {
        self.rex_w(src.0, dst.0);
        self.u8(0x89);
        self.modrm(3, src.0, dst.0);
    }

    /// `mov dst, imm` — sign-extended imm32 when it fits, else `movabs`.
    pub fn mov_ri(&mut self, dst: Gpr, imm: i64) {
        if imm as i32 as i64 == imm {
            self.rex_w(0, dst.0);
            self.u8(0xC7);
            self.modrm(3, 0, dst.0);
            self.i32(imm as i32);
        } else {
            self.rex_w(0, dst.0);
            self.u8(0xB8 | (dst.0 & 7));
            self.i64(imm);
        }
    }

    /// `mov dst, [base + disp]` (64-bit load).
    pub fn mov_rm(&mut self, dst: Gpr, base: Gpr, disp: i32) {
        self.rex_w(dst.0, base.0);
        self.u8(0x8B);
        self.mem(dst.0, base, disp);
    }

    /// `mov [base + disp], src` (64-bit store).
    pub fn mov_mr(&mut self, base: Gpr, disp: i32, src: Gpr) {
        self.rex_w(src.0, base.0);
        self.u8(0x89);
        self.mem(src.0, base, disp);
    }

    /// `mov dst, [base + index*8]`.
    pub fn mov_rm_index8(&mut self, dst: Gpr, base: Gpr, index: Gpr) {
        self.rex_wx(dst.0, index.0, base.0);
        self.u8(0x8B);
        self.mem_index8(dst.0, base, index);
    }

    /// `mov [base + index*8], src`.
    pub fn mov_mr_index8(&mut self, base: Gpr, index: Gpr, src: Gpr) {
        self.rex_wx(src.0, index.0, base.0);
        self.u8(0x89);
        self.mem_index8(src.0, base, index);
    }

    /// `mov qword ptr [base + disp], imm32` (sign-extended).
    pub fn mov_mi(&mut self, base: Gpr, disp: i32, imm: i32) {
        self.rex_w(0, base.0);
        self.u8(0xC7);
        self.mem(0, base, disp);
        self.i32(imm);
    }

    /// `movzx dst, al`-style zero extension of a low byte register.
    pub fn movzx_rb(&mut self, dst: Gpr, src: Gpr) {
        debug_assert!(src.0 < 4, "only a/c/d/b low bytes are REX-free");
        self.rex_w(dst.0, src.0);
        self.u8(0x0F);
        self.u8(0xB6);
        self.modrm(3, dst.0, src.0);
    }

    // ---- ALU ----

    fn alu_rr(&mut self, opcode: u8, dst: Gpr, src: Gpr) {
        self.rex_w(src.0, dst.0);
        self.u8(opcode);
        self.modrm(3, src.0, dst.0);
    }

    /// `add dst, src`.
    pub fn add_rr(&mut self, dst: Gpr, src: Gpr) {
        self.alu_rr(0x01, dst, src);
    }

    /// `sub dst, src`.
    pub fn sub_rr(&mut self, dst: Gpr, src: Gpr) {
        self.alu_rr(0x29, dst, src);
    }

    /// `and dst, src`.
    pub fn and_rr(&mut self, dst: Gpr, src: Gpr) {
        self.alu_rr(0x21, dst, src);
    }

    /// `or dst, src`.
    pub fn or_rr(&mut self, dst: Gpr, src: Gpr) {
        self.alu_rr(0x09, dst, src);
    }

    /// `xor dst, src`.
    pub fn xor_rr(&mut self, dst: Gpr, src: Gpr) {
        self.alu_rr(0x31, dst, src);
    }

    /// `cmp a, b`.
    pub fn cmp_rr(&mut self, a: Gpr, b: Gpr) {
        self.alu_rr(0x39, a, b);
    }

    /// `test a, b`.
    pub fn test_rr(&mut self, a: Gpr, b: Gpr) {
        self.alu_rr(0x85, a, b);
    }

    /// `imul dst, src` (low 64 bits, i.e. wrapping multiply).
    pub fn imul_rr(&mut self, dst: Gpr, src: Gpr) {
        self.rex_w(dst.0, src.0);
        self.u8(0x0F);
        self.u8(0xAF);
        self.modrm(3, dst.0, src.0);
    }

    /// `add reg, imm32` (sign-extended).
    pub fn add_ri(&mut self, reg: Gpr, imm: i32) {
        self.rex_w(0, reg.0);
        self.u8(0x81);
        self.modrm(3, 0, reg.0);
        self.i32(imm);
    }

    /// `sub reg, imm32`.
    pub fn sub_ri(&mut self, reg: Gpr, imm: i32) {
        self.rex_w(0, reg.0);
        self.u8(0x81);
        self.modrm(3, 5, reg.0);
        self.i32(imm);
    }

    /// `cmp reg, imm8` (sign-extended).
    pub fn cmp_ri8(&mut self, reg: Gpr, imm: i8) {
        self.rex_w(0, reg.0);
        self.u8(0x83);
        self.modrm(3, 7, reg.0);
        self.u8(imm as u8);
    }

    /// `cmp qword ptr [base + disp], imm8` (sign-extended).
    pub fn cmp_mi8(&mut self, base: Gpr, disp: i32, imm: i8) {
        self.rex_w(0, base.0);
        self.u8(0x83);
        self.mem(7, base, disp);
        self.u8(imm as u8);
    }

    /// `cmp a, qword ptr [base + disp]`.
    pub fn cmp_rm(&mut self, a: Gpr, base: Gpr, disp: i32) {
        self.rex_w(a.0, base.0);
        self.u8(0x3B);
        self.mem(a.0, base, disp);
    }

    /// `neg reg`.
    pub fn neg_r(&mut self, reg: Gpr) {
        self.rex_w(0, reg.0);
        self.u8(0xF7);
        self.modrm(3, 3, reg.0);
    }

    /// `not reg`.
    pub fn not_r(&mut self, reg: Gpr) {
        self.rex_w(0, reg.0);
        self.u8(0xF7);
        self.modrm(3, 2, reg.0);
    }

    /// `shl reg, cl`.
    pub fn shl_cl(&mut self, reg: Gpr) {
        self.rex_w(0, reg.0);
        self.u8(0xD3);
        self.modrm(3, 4, reg.0);
    }

    /// `sar reg, cl`.
    pub fn sar_cl(&mut self, reg: Gpr) {
        self.rex_w(0, reg.0);
        self.u8(0xD3);
        self.modrm(3, 7, reg.0);
    }

    /// `cqo` (sign-extend rax into rdx:rax).
    pub fn cqo(&mut self) {
        self.u8(0x48);
        self.u8(0x99);
    }

    /// `idiv reg` (rdx:rax / reg -> quotient rax, remainder rdx).
    pub fn idiv_r(&mut self, reg: Gpr) {
        self.rex_w(0, reg.0);
        self.u8(0xF7);
        self.modrm(3, 7, reg.0);
    }

    /// `xor e<reg>, e<reg>` — the canonical 64-bit zeroing idiom.
    pub fn zero_r(&mut self, reg: Gpr) {
        if reg.0 >= 8 {
            self.u8(0x45);
        }
        self.u8(0x31);
        self.modrm(3, reg.0, reg.0);
    }

    /// `setcc` on a low byte register (`al`, `cl`, `dl`, `bl`).
    pub fn setcc(&mut self, cc: Cc, reg: Gpr) {
        debug_assert!(reg.0 < 4, "only a/c/d/b low bytes are REX-free");
        self.u8(0x0F);
        self.u8(0x90 | cc as u8);
        self.modrm(3, 0, reg.0);
    }

    /// `and dst8, src8` on low byte registers.
    pub fn and_rr8(&mut self, dst: Gpr, src: Gpr) {
        debug_assert!(dst.0 < 4 && src.0 < 4);
        self.u8(0x20);
        self.modrm(3, src.0, dst.0);
    }

    /// `inc qword ptr [base + disp]`.
    pub fn inc_m(&mut self, base: Gpr, disp: i32) {
        self.rex_w(0, base.0);
        self.u8(0xFF);
        self.mem(0, base, disp);
    }

    /// `dec qword ptr [base + disp]`.
    pub fn dec_m(&mut self, base: Gpr, disp: i32) {
        self.rex_w(0, base.0);
        self.u8(0xFF);
        self.mem(1, base, disp);
    }

    // ---- SSE2 scalar double ----

    fn sse_prefix_op(&mut self, prefix: u8, op: u8, reg: u8, rm: u8) {
        self.u8(prefix);
        if reg >= 8 || rm >= 8 {
            self.u8(0x40 | ((reg >> 3) << 2) | (rm >> 3));
        }
        self.u8(0x0F);
        self.u8(op);
        self.modrm(3, reg, rm);
    }

    /// `movsd xmm, [base + disp]`.
    pub fn movsd_xm(&mut self, dst: Xmm, base: Gpr, disp: i32) {
        self.u8(0xF2);
        if dst.0 >= 8 || base.0 >= 8 {
            self.u8(0x40 | ((dst.0 >> 3) << 2) | (base.0 >> 3));
        }
        self.u8(0x0F);
        self.u8(0x10);
        self.mem(dst.0, base, disp);
    }

    /// `movsd [base + disp], xmm`.
    pub fn movsd_mx(&mut self, base: Gpr, disp: i32, src: Xmm) {
        self.u8(0xF2);
        if src.0 >= 8 || base.0 >= 8 {
            self.u8(0x40 | ((src.0 >> 3) << 2) | (base.0 >> 3));
        }
        self.u8(0x0F);
        self.u8(0x11);
        self.mem(src.0, base, disp);
    }

    /// `addsd dst, src`.
    pub fn addsd(&mut self, dst: Xmm, src: Xmm) {
        self.sse_prefix_op(0xF2, 0x58, dst.0, src.0);
    }

    /// `subsd dst, src`.
    pub fn subsd(&mut self, dst: Xmm, src: Xmm) {
        self.sse_prefix_op(0xF2, 0x5C, dst.0, src.0);
    }

    /// `mulsd dst, src`.
    pub fn mulsd(&mut self, dst: Xmm, src: Xmm) {
        self.sse_prefix_op(0xF2, 0x59, dst.0, src.0);
    }

    /// `divsd dst, src`.
    pub fn divsd(&mut self, dst: Xmm, src: Xmm) {
        self.sse_prefix_op(0xF2, 0x5E, dst.0, src.0);
    }

    /// `sqrtsd dst, src`.
    pub fn sqrtsd(&mut self, dst: Xmm, src: Xmm) {
        self.sse_prefix_op(0xF2, 0x51, dst.0, src.0);
    }

    /// `ucomisd a, b` (sets ZF/PF/CF like an unsigned compare).
    pub fn ucomisd(&mut self, a: Xmm, b: Xmm) {
        self.sse_prefix_op(0x66, 0x2E, a.0, b.0);
    }

    /// `cvtsi2sd xmm, r64` (exactly Rust's `i64 as f64`).
    pub fn cvtsi2sd(&mut self, dst: Xmm, src: Gpr) {
        self.u8(0xF2);
        self.rex_w(dst.0, src.0);
        self.u8(0x0F);
        self.u8(0x2A);
        self.modrm(3, dst.0, src.0);
    }

    // ---- stack / control flow ----

    /// `push reg`.
    pub fn push_r(&mut self, reg: Gpr) {
        if reg.0 >= 8 {
            self.u8(0x41);
        }
        self.u8(0x50 | (reg.0 & 7));
    }

    /// `pop reg`.
    pub fn pop_r(&mut self, reg: Gpr) {
        if reg.0 >= 8 {
            self.u8(0x41);
        }
        self.u8(0x58 | (reg.0 & 7));
    }

    /// `leave` (`mov rsp, rbp; pop rbp`).
    pub fn leave(&mut self) {
        self.u8(0xC9);
    }

    /// `ret`.
    pub fn ret(&mut self) {
        self.u8(0xC3);
    }

    /// `rep stosq` (fills `rcx` qwords at `[rdi]` with `rax`).
    pub fn rep_stosq(&mut self) {
        self.u8(0xF3);
        self.u8(0x48);
        self.u8(0xAB);
    }

    /// `jmp label` (rel32).
    pub fn jmp(&mut self, l: Label) {
        self.u8(0xE9);
        self.fixups.push((self.code.len(), l));
        self.i32(0);
    }

    /// `jcc label` (rel32).
    pub fn jcc(&mut self, cc: Cc, l: Label) {
        self.u8(0x0F);
        self.u8(0x80 | cc as u8);
        self.fixups.push((self.code.len(), l));
        self.i32(0);
    }

    /// `call` with a rel32 placeholder; returns the placeholder's byte
    /// position for an external (cross-function) patch.
    pub fn call_rel32_placeholder(&mut self) -> usize {
        self.u8(0xE8);
        let pos = self.code.len();
        self.i32(0);
        pos
    }

    /// `call reg` (indirect, for absolute helper addresses).
    pub fn call_r(&mut self, reg: Gpr) {
        if reg.0 >= 8 {
            self.u8(0x41);
        }
        self.u8(0xFF);
        self.modrm(3, 2, reg.0);
    }

    /// Patches a rel32 at `pos` so control transfers to absolute offset
    /// `target` within the same buffer.
    pub fn patch_rel32(code: &mut [u8], pos: usize, target: usize) {
        let rel = target as i64 - (pos as i64 + 4);
        code[pos..pos + 4].copy_from_slice(&(rel as i32).to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emit(f: impl FnOnce(&mut Asm)) -> Vec<u8> {
        let mut a = Asm::new();
        f(&mut a);
        a.finish()
    }

    #[test]
    fn mov_reg_reg() {
        assert_eq!(emit(|a| a.mov_rr(RBP, RSP)), [0x48, 0x89, 0xE5]);
        assert_eq!(emit(|a| a.mov_rr(RBX, RDI)), [0x48, 0x89, 0xFB]);
        assert_eq!(emit(|a| a.mov_rr(R12, RAX)), [0x49, 0x89, 0xC4]);
    }

    #[test]
    fn mov_imm_compression() {
        // imm32 fits: sign-extended C7 form.
        assert_eq!(emit(|a| a.mov_ri(RAX, 42)), [0x48, 0xC7, 0xC0, 42, 0, 0, 0]);
        assert_eq!(emit(|a| a.mov_ri(RAX, -1)), [0x48, 0xC7, 0xC0, 0xFF, 0xFF, 0xFF, 0xFF]);
        // imm64: movabs.
        let big = 0x1122334455667788u64 as i64;
        assert_eq!(
            emit(|a| a.mov_ri(RAX, big)),
            [0x48, 0xB8, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11]
        );
    }

    #[test]
    fn loads_and_stores_use_disp32() {
        assert_eq!(emit(|a| a.mov_rm(RAX, RBP, -8)), [0x48, 0x8B, 0x85, 0xF8, 0xFF, 0xFF, 0xFF]);
        assert_eq!(emit(|a| a.mov_mr(RBX, 0x58, RAX)), [0x48, 0x89, 0x83, 0x58, 0, 0, 0]);
        // r12 base forces a SIB byte.
        assert_eq!(emit(|a| a.mov_rm(RCX, R12, 16)), [0x49, 0x8B, 0x8C, 0x24, 16, 0, 0, 0]);
    }

    #[test]
    fn scaled_index_memory_access() {
        // mov rcx, [r12 + rax*8]
        assert_eq!(emit(|a| a.mov_rm_index8(RCX, R12, RAX)), [0x49, 0x8B, 0x0C, 0xC4]);
        // mov [r12 + rax*8], rcx
        assert_eq!(emit(|a| a.mov_mr_index8(R12, RAX, RCX)), [0x49, 0x89, 0x0C, 0xC4]);
    }

    #[test]
    fn alu_forms() {
        assert_eq!(emit(|a| a.add_rr(RAX, RCX)), [0x48, 0x01, 0xC8]);
        assert_eq!(emit(|a| a.sub_rr(RAX, RCX)), [0x48, 0x29, 0xC8]);
        assert_eq!(emit(|a| a.imul_rr(RAX, RCX)), [0x48, 0x0F, 0xAF, 0xC1]);
        assert_eq!(emit(|a| a.cmp_rr(RAX, R14)), [0x4C, 0x39, 0xF0]);
        assert_eq!(emit(|a| a.test_rr(RAX, RAX)), [0x48, 0x85, 0xC0]);
        assert_eq!(emit(|a| a.neg_r(RAX)), [0x48, 0xF7, 0xD8]);
        assert_eq!(emit(|a| a.not_r(RAX)), [0x48, 0xF7, 0xD0]);
        assert_eq!(emit(|a| a.shl_cl(RAX)), [0x48, 0xD3, 0xE0]);
        assert_eq!(emit(|a| a.sar_cl(RAX)), [0x48, 0xD3, 0xF8]);
        assert_eq!(emit(|a| a.cqo()), [0x48, 0x99]);
        assert_eq!(emit(|a| a.idiv_r(RCX)), [0x48, 0xF7, 0xF9]);
        assert_eq!(emit(|a| a.zero_r(RAX)), [0x31, 0xC0]);
    }

    #[test]
    fn flag_materialisation() {
        assert_eq!(emit(|a| a.setcc(Cc::E, RAX)), [0x0F, 0x94, 0xC0]);
        assert_eq!(emit(|a| a.setcc(Cc::L, RAX)), [0x0F, 0x9C, 0xC0]);
        assert_eq!(emit(|a| a.setcc(Cc::Np, RAX)), [0x0F, 0x9B, 0xC0]);
        assert_eq!(emit(|a| a.and_rr8(RAX, RDX)), [0x20, 0xD0]);
        assert_eq!(emit(|a| a.movzx_rb(RAX, RAX)), [0x48, 0x0F, 0xB6, 0xC0]);
    }

    #[test]
    fn counter_and_guard_forms() {
        assert_eq!(emit(|a| a.inc_m(RBX, 8)), [0x48, 0xFF, 0x83, 8, 0, 0, 0]);
        assert_eq!(emit(|a| a.dec_m(RBX, 8)), [0x48, 0xFF, 0x8B, 8, 0, 0, 0]);
        assert_eq!(emit(|a| a.cmp_mi8(RBX, 8, 0)), [0x48, 0x83, 0xBB, 8, 0, 0, 0, 0]);
        assert_eq!(emit(|a| a.cmp_ri8(RCX, -1)), [0x48, 0x83, 0xF9, 0xFF]);
        assert_eq!(emit(|a| a.mov_mi(RBX, 0x70, 3)), [0x48, 0xC7, 0x83, 0x70, 0, 0, 0, 3, 0, 0, 0]);
    }

    #[test]
    fn sse_scalar_double() {
        assert_eq!(
            emit(|a| a.movsd_xm(XMM0, RBP, -16)),
            [0xF2, 0x0F, 0x10, 0x85, 0xF0, 0xFF, 0xFF, 0xFF]
        );
        assert_eq!(
            emit(|a| a.movsd_mx(RBP, -16, XMM0)),
            [0xF2, 0x0F, 0x11, 0x85, 0xF0, 0xFF, 0xFF, 0xFF]
        );
        assert_eq!(emit(|a| a.addsd(XMM0, XMM1)), [0xF2, 0x0F, 0x58, 0xC1]);
        assert_eq!(emit(|a| a.subsd(XMM0, XMM1)), [0xF2, 0x0F, 0x5C, 0xC1]);
        assert_eq!(emit(|a| a.mulsd(XMM0, XMM1)), [0xF2, 0x0F, 0x59, 0xC1]);
        assert_eq!(emit(|a| a.divsd(XMM0, XMM1)), [0xF2, 0x0F, 0x5E, 0xC1]);
        assert_eq!(emit(|a| a.sqrtsd(XMM0, XMM0)), [0xF2, 0x0F, 0x51, 0xC0]);
        assert_eq!(emit(|a| a.ucomisd(XMM1, XMM0)), [0x66, 0x0F, 0x2E, 0xC8]);
        assert_eq!(emit(|a| a.cvtsi2sd(XMM0, RAX)), [0xF2, 0x48, 0x0F, 0x2A, 0xC0]);
    }

    #[test]
    fn stack_and_calls() {
        assert_eq!(emit(|a| a.push_r(RBP)), [0x55]);
        assert_eq!(emit(|a| a.push_r(R12)), [0x41, 0x54]);
        assert_eq!(emit(|a| a.pop_r(R14)), [0x41, 0x5E]);
        assert_eq!(emit(|a| a.leave()), [0xC9]);
        assert_eq!(emit(|a| a.ret()), [0xC3]);
        assert_eq!(emit(|a| a.call_r(RAX)), [0xFF, 0xD0]);
        assert_eq!(emit(|a| a.rep_stosq()), [0xF3, 0x48, 0xAB]);
        assert_eq!(emit(|a| a.sub_ri(RSP, 32)), [0x48, 0x81, 0xEC, 32, 0, 0, 0]);
    }

    #[test]
    fn labels_resolve_forward_and_backward() {
        let mut a = Asm::new();
        let top = a.label();
        let out = a.label();
        a.bind(top);
        a.test_rr(RAX, RAX); // 3 bytes
        a.jcc(Cc::E, out); // 6 bytes
        a.jmp(top); // 5 bytes
        a.bind(out);
        a.ret();
        let code = a.finish();
        // jcc at offset 3, rel32 at 5..9, target 14 => 14 - 9 = 5
        assert_eq!(&code[5..9], &5i32.to_le_bytes());
        // jmp at offset 9, rel32 at 10..14, target 0 => 0 - 14 = -14
        assert_eq!(&code[10..14], &(-14i32).to_le_bytes());
    }

    #[test]
    fn call_placeholder_patching() {
        let mut a = Asm::new();
        let pos = a.call_rel32_placeholder();
        a.ret();
        let mut code = a.finish();
        Asm::patch_rel32(&mut code, pos, 5);
        assert_eq!(code, [0xE8, 0, 0, 0, 0, 0xC3]);
    }
}
