//! Instructions of the load/store IR.
//!
//! The instruction set is deliberately Alpha-flavoured: three-address ALU
//! operations, loads/stores with a base register and word offset, immediate
//! moves, compare-against-zero conditional branches, and calls that pass
//! arguments in physical argument registers (so parameter-register moves —
//! the motivating case of the paper's move optimization in §2.5 — appear
//! explicitly in the IR).

use crate::block::BlockId;
use crate::reg::{PhysReg, Reg, RegClass, Temp};

/// An ALU opcode. Each opcode fixes the classes of its operands and result
/// (see [`OpCode::sig`]) and its arity (see [`OpCode::arity`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum OpCode {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Integer division (traps on zero in the VM).
    Div,
    /// Integer remainder.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive-or.
    Xor,
    /// Shift left (shift count taken modulo 64).
    Shl,
    /// Arithmetic shift right (count modulo 64).
    Shr,
    /// Integer compare: equal (produces 0/1).
    CmpEq,
    /// Integer compare: less-than, signed.
    CmpLt,
    /// Integer compare: less-or-equal, signed.
    CmpLe,
    /// Integer negation (unary).
    Neg,
    /// Bitwise not (unary).
    Not,
    /// Floating-point addition.
    FAdd,
    /// Floating-point subtraction.
    FSub,
    /// Floating-point multiplication.
    FMul,
    /// Floating-point division.
    FDiv,
    /// Floating-point compare: equal (integer 0/1 result).
    FCmpEq,
    /// Floating-point compare: less-than (integer 0/1 result).
    FCmpLt,
    /// Floating-point compare: less-or-equal (integer 0/1 result).
    FCmpLe,
    /// Floating-point negation (unary).
    FNeg,
    /// Floating-point absolute value (unary).
    FAbs,
    /// Floating-point square root (unary).
    FSqrt,
    /// Convert integer to float (unary; int source, float result).
    IntToFloat,
    /// Convert float to integer, truncating (unary; float source, int result).
    FloatToInt,
}

impl OpCode {
    /// Every opcode, in declaration order.
    pub const ALL: [OpCode; 27] = {
        use OpCode::*;
        [
            Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, CmpEq, CmpLt, CmpLe, Neg, Not, FAdd,
            FSub, FMul, FDiv, FCmpEq, FCmpLt, FCmpLe, FNeg, FAbs, FSqrt, IntToFloat, FloatToInt,
        ]
    };

    /// Number of register sources (1 or 2).
    pub fn arity(self) -> usize {
        use OpCode::*;
        match self {
            Neg | Not | FNeg | FAbs | FSqrt | IntToFloat | FloatToInt => 1,
            _ => 2,
        }
    }

    /// `(source class, destination class)` for this opcode.
    pub fn sig(self) -> (RegClass, RegClass) {
        use OpCode::*;
        use RegClass::{Float, Int};
        match self {
            Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | CmpEq | CmpLt | CmpLe
            | Neg | Not => (Int, Int),
            FAdd | FSub | FMul | FDiv | FNeg | FAbs | FSqrt => (Float, Float),
            FCmpEq | FCmpLt | FCmpLe | FloatToInt => (Float, Int),
            IntToFloat => (Int, Float),
        }
    }

    /// The IR printer's mnemonic.
    pub fn mnemonic(self) -> &'static str {
        use OpCode::*;
        match self {
            Add => "add",
            Sub => "sub",
            Mul => "mul",
            Div => "div",
            Rem => "rem",
            And => "and",
            Or => "or",
            Xor => "xor",
            Shl => "shl",
            Shr => "shr",
            CmpEq => "cmpeq",
            CmpLt => "cmplt",
            CmpLe => "cmple",
            Neg => "neg",
            Not => "not",
            FAdd => "fadd",
            FSub => "fsub",
            FMul => "fmul",
            FDiv => "fdiv",
            FCmpEq => "fcmpeq",
            FCmpLt => "fcmplt",
            FCmpLe => "fcmple",
            FNeg => "fneg",
            FAbs => "fabs",
            FSqrt => "fsqrt",
            IntToFloat => "itof",
            FloatToInt => "ftoi",
        }
    }
}

/// Condition for a conditional branch; the operand is compared against zero,
/// Alpha-style (`beq`, `bne`, `blt`, ...).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Branch if the operand is zero.
    Eq,
    /// Branch if the operand is non-zero.
    Ne,
    /// Branch if the operand is negative.
    Lt,
    /// Branch if the operand is non-positive.
    Le,
    /// Branch if the operand is positive.
    Gt,
    /// Branch if the operand is non-negative.
    Ge,
}

impl Cond {
    /// Every condition, in declaration order.
    pub const ALL: [Cond; 6] = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge];

    /// Evaluates the condition against an integer value.
    pub fn eval(self, v: i64) -> bool {
        match self {
            Cond::Eq => v == 0,
            Cond::Ne => v != 0,
            Cond::Lt => v < 0,
            Cond::Le => v <= 0,
            Cond::Gt => v > 0,
            Cond::Ge => v >= 0,
        }
    }

    /// The printer's mnemonic (`beq` etc. without the `b`).
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Lt => "lt",
            Cond::Le => "le",
            Cond::Gt => "gt",
            Cond::Ge => "ge",
        }
    }
}

/// Identifies a function within a [`crate::Module`].
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FuncId(pub u32);

impl FuncId {
    /// Dense index of the function in its module.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// External (runtime-provided) routines. They follow the normal calling
/// convention: arguments in argument registers, results in return registers,
/// caller-saved registers clobbered.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ExtFn {
    /// Read the next byte of the program input; returns `-1` at end of input.
    GetChar,
    /// Write one integer argument to the output trace.
    PutInt,
    /// Write one character (low byte of the integer argument) to the output
    /// trace.
    PutChar,
    /// Write one floating-point argument to the output trace.
    PutFloat,
}

impl ExtFn {
    /// Every external routine, in declaration order.
    pub const ALL: [ExtFn; 4] = [ExtFn::GetChar, ExtFn::PutInt, ExtFn::PutChar, ExtFn::PutFloat];

    /// The printer's name for the routine.
    pub fn name(self) -> &'static str {
        match self {
            ExtFn::GetChar => "getchar",
            ExtFn::PutInt => "putint",
            ExtFn::PutChar => "putchar",
            ExtFn::PutFloat => "putfloat",
        }
    }
}

/// A call target: another function in the module or an external routine.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Callee {
    /// An intra-module function.
    Func(FuncId),
    /// An external runtime routine.
    Ext(ExtFn),
}

/// Provenance tag for instructions inserted by a register allocator,
/// matching the six categories of the paper's Figure 3 plus coloring's
/// single "spill" category folded into the `Evict*` kinds.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum SpillTag {
    /// Original program instruction.
    None,
    /// Spill load inserted during the linear scan (or coloring's rewrite).
    EvictLoad,
    /// Spill store inserted during the linear scan (or coloring's rewrite).
    EvictStore,
    /// Register-to-register move inserted during the linear scan
    /// (early second chance, §2.5).
    EvictMove,
    /// Load inserted by the resolution pass (§2.4).
    ResolveLoad,
    /// Store inserted by the resolution pass (§2.4), including consistency
    /// stores from the `USED_C` dataflow.
    ResolveStore,
    /// Move inserted by the resolution pass (§2.4).
    ResolveMove,
}

impl SpillTag {
    /// True for any allocator-inserted instruction.
    #[inline]
    pub fn is_spill(self) -> bool {
        !matches!(self, SpillTag::None)
    }

    /// The printer's name for the tag (the comment after a tagged
    /// instruction).
    pub fn name(self) -> &'static str {
        match self {
            SpillTag::None => "None",
            SpillTag::EvictLoad => "EvictLoad",
            SpillTag::EvictStore => "EvictStore",
            SpillTag::EvictMove => "EvictMove",
            SpillTag::ResolveLoad => "ResolveLoad",
            SpillTag::ResolveStore => "ResolveStore",
            SpillTag::ResolveMove => "ResolveMove",
        }
    }

    /// All spill categories, in Figure 3's order.
    pub const SPILL_KINDS: [SpillTag; 6] = [
        SpillTag::EvictLoad,
        SpillTag::EvictStore,
        SpillTag::EvictMove,
        SpillTag::ResolveLoad,
        SpillTag::ResolveStore,
        SpillTag::ResolveMove,
    ];
}

/// The sources of an [`Inst::Op`], stored inline: at most
/// [`Srcs::CAPACITY`] registers (the largest [`OpCode::arity`]) and their
/// count. It derefs to `&[Reg]`, so `srcs[0]`, `.iter()` and `.len()` read
/// it like the slice it holds; the count is kept, so an operation with
/// fewer sources than its arity can still be built (and then refused by
/// validation).
#[derive(Copy, Clone)]
pub struct Srcs {
    regs: [Reg; Srcs::CAPACITY],
    len: u8,
}

impl Srcs {
    /// The most sources an operation can hold.
    pub const CAPACITY: usize = 2;

    /// No sources.
    pub const fn new() -> Srcs {
        Srcs { regs: [Reg::Temp(Temp(0)); Srcs::CAPACITY], len: 0 }
    }

    /// Appends `r`, or hands it back if the sources are full.
    pub fn try_push(&mut self, r: Reg) -> Result<(), Reg> {
        let n = self.len as usize;
        if n == Srcs::CAPACITY {
            return Err(r);
        }
        self.regs[n] = r;
        self.len += 1;
        Ok(())
    }

    /// Removes and returns the last source.
    pub fn pop(&mut self) -> Option<Reg> {
        let n = self.len.checked_sub(1)?;
        self.len = n;
        Some(self.regs[n as usize])
    }
}

impl Default for Srcs {
    fn default() -> Srcs {
        Srcs::new()
    }
}

/// Up to [`Srcs::CAPACITY`] sources; a longer array is a compile error.
impl<const N: usize> From<[Reg; N]> for Srcs {
    fn from(regs: [Reg; N]) -> Srcs {
        const { assert!(N <= Srcs::CAPACITY, "an operation has at most two sources") };
        let mut s = Srcs::new();
        s.regs[..N].copy_from_slice(&regs);
        s.len = N as u8;
        s
    }
}

impl std::ops::Deref for Srcs {
    type Target = [Reg];
    #[inline]
    fn deref(&self) -> &[Reg] {
        &self.regs[..self.len as usize]
    }
}

impl std::ops::DerefMut for Srcs {
    #[inline]
    fn deref_mut(&mut self) -> &mut [Reg] {
        &mut self.regs[..self.len as usize]
    }
}

impl PartialEq for Srcs {
    fn eq(&self, other: &Srcs) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for Srcs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// An IR instruction.
///
/// Every block ends with exactly one terminator (`Jump`, `Branch`, or `Ret`);
/// terminators appear nowhere else.
#[derive(Clone, Debug, PartialEq)]
pub enum Inst {
    /// `dst = op(srcs...)`.
    Op {
        /// The operation.
        op: OpCode,
        /// Destination register.
        dst: Reg,
        /// Source registers (`op.arity()` of them), stored inline.
        srcs: Srcs,
    },
    /// `dst = imm` (integer immediate).
    MovI {
        /// Destination (integer class).
        dst: Reg,
        /// The immediate value.
        imm: i64,
    },
    /// `dst = imm` (floating-point immediate).
    MovF {
        /// Destination (float class).
        dst: Reg,
        /// The immediate value.
        imm: f64,
    },
    /// Register move within a class.
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `dst = memory[base + offset]` (word-addressed).
    Load {
        /// Destination (either class; memory is untyped words).
        dst: Reg,
        /// Base address register (integer class).
        base: Reg,
        /// Word offset.
        offset: i32,
    },
    /// `memory[base + offset] = src`.
    Store {
        /// The stored register.
        src: Reg,
        /// Base address register (integer class).
        base: Reg,
        /// Word offset.
        offset: i32,
    },
    /// Reload `temp` from its spill slot into `dst` (allocator-inserted).
    SpillLoad {
        /// Destination register.
        dst: Reg,
        /// The spilled temporary whose memory home is read.
        temp: Temp,
    },
    /// Store `src` to `temp`'s spill slot (allocator-inserted).
    SpillStore {
        /// Source register holding the value.
        src: Reg,
        /// The spilled temporary whose memory home is written.
        temp: Temp,
    },
    /// Call `callee`. Arguments have already been moved into `arg_regs`;
    /// results appear in `ret_regs`. All caller-saved registers are
    /// clobbered.
    Call {
        /// The call target.
        callee: Callee,
        /// Argument registers read by the call.
        arg_regs: Vec<PhysReg>,
        /// Return-value registers written by the call.
        ret_regs: Vec<PhysReg>,
    },
    /// Unconditional jump (terminator).
    Jump {
        /// Jump target.
        target: BlockId,
    },
    /// Conditional branch comparing `src` against zero (terminator).
    Branch {
        /// The comparison against zero.
        cond: Cond,
        /// The tested register (integer class).
        src: Reg,
        /// Target when the condition holds.
        then_tgt: BlockId,
        /// Target when the condition fails.
        else_tgt: BlockId,
    },
    /// Return from the function (terminator). Return values have already
    /// been moved into `ret_regs`.
    Ret {
        /// Return-value registers live out of the function.
        ret_regs: Vec<PhysReg>,
    },
}

impl Inst {
    /// True for block terminators.
    pub fn is_terminator(&self) -> bool {
        matches!(self, Inst::Jump { .. } | Inst::Branch { .. } | Inst::Ret { .. })
    }

    /// True for register-to-register moves (the subject of move coalescing).
    pub fn is_move(&self) -> bool {
        matches!(self, Inst::Mov { .. })
    }

    /// True for calls.
    pub fn is_call(&self) -> bool {
        matches!(self, Inst::Call { .. })
    }

    /// Successor blocks of a terminator: then-target first, equal branch
    /// arms once, none for `Ret`.
    pub fn branch_targets(&self) -> impl Iterator<Item = BlockId> {
        let (first, second) = match *self {
            Inst::Jump { target } => (Some(target), None),
            Inst::Branch { then_tgt, else_tgt, .. } => {
                (Some(then_tgt), (else_tgt != then_tgt).then_some(else_tgt))
            }
            Inst::Ret { .. } => (None, None),
            _ => panic!("branch_targets on non-terminator {self:?}"),
        };
        first.into_iter().chain(second)
    }

    /// Invokes `f` on every register *use* (source operand).
    pub fn for_each_use(&self, mut f: impl FnMut(Reg)) {
        match self {
            Inst::Op { srcs, .. } => srcs.iter().for_each(|&r| f(r)),
            Inst::MovI { .. } | Inst::MovF { .. } => {}
            Inst::Mov { src, .. } => f(*src),
            Inst::Load { base, .. } => f(*base),
            Inst::Store { src, base, .. } => {
                f(*src);
                f(*base);
            }
            Inst::SpillLoad { .. } => {}
            Inst::SpillStore { src, .. } => f(*src),
            Inst::Call { arg_regs, .. } => arg_regs.iter().for_each(|&p| f(Reg::Phys(p))),
            Inst::Jump { .. } => {}
            Inst::Branch { src, .. } => f(*src),
            Inst::Ret { ret_regs } => ret_regs.iter().for_each(|&p| f(Reg::Phys(p))),
        }
    }

    /// Invokes `f` on every register *definition* (destination operand).
    pub fn for_each_def(&self, mut f: impl FnMut(Reg)) {
        match self {
            Inst::Op { dst, .. }
            | Inst::MovI { dst, .. }
            | Inst::MovF { dst, .. }
            | Inst::Mov { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::SpillLoad { dst, .. } => f(*dst),
            Inst::Store { .. } | Inst::SpillStore { .. } => {}
            Inst::Call { ret_regs, .. } => ret_regs.iter().for_each(|&p| f(Reg::Phys(p))),
            Inst::Jump { .. } | Inst::Branch { .. } | Inst::Ret { .. } => {}
        }
    }

    /// Mutable access to every use operand that is a rewritable register
    /// reference (calls and returns use fixed physical registers, which are
    /// not rewritable).
    pub fn for_each_use_mut(&mut self, mut f: impl FnMut(&mut Reg)) {
        match self {
            Inst::Op { srcs, .. } => srcs.iter_mut().for_each(&mut f),
            Inst::MovI { .. } | Inst::MovF { .. } => {}
            Inst::Mov { src, .. } => f(src),
            Inst::Load { base, .. } => f(base),
            Inst::Store { src, base, .. } => {
                f(src);
                f(base);
            }
            Inst::SpillLoad { .. } => {}
            Inst::SpillStore { src, .. } => f(src),
            Inst::Call { .. } => {}
            Inst::Jump { .. } => {}
            Inst::Branch { src, .. } => f(src),
            Inst::Ret { .. } => {}
        }
    }

    /// Mutable access to every rewritable definition operand.
    pub fn for_each_def_mut(&mut self, mut f: impl FnMut(&mut Reg)) {
        match self {
            Inst::Op { dst, .. }
            | Inst::MovI { dst, .. }
            | Inst::MovF { dst, .. }
            | Inst::Mov { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::SpillLoad { dst, .. } => f(dst),
            _ => {}
        }
    }
}

/// An instruction together with its allocator provenance tag.
#[derive(Clone, Debug, PartialEq)]
pub struct Ins {
    /// The instruction.
    pub inst: Inst,
    /// Who inserted it (original program vs. a spill category).
    pub tag: SpillTag,
}

impl Ins {
    /// Wraps an original program instruction.
    pub fn new(inst: Inst) -> Self {
        Ins { inst, tag: SpillTag::None }
    }

    /// Wraps an allocator-inserted instruction with its category.
    pub fn tagged(inst: Inst, tag: SpillTag) -> Self {
        Ins { inst, tag }
    }
}

impl From<Inst> for Ins {
    fn from(inst: Inst) -> Ins {
        Ins::new(inst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_arity_and_sig() {
        assert_eq!(OpCode::Add.arity(), 2);
        assert_eq!(OpCode::Neg.arity(), 1);
        assert_eq!(OpCode::FAdd.sig(), (RegClass::Float, RegClass::Float));
        assert_eq!(OpCode::FCmpLt.sig(), (RegClass::Float, RegClass::Int));
        assert_eq!(OpCode::IntToFloat.sig(), (RegClass::Int, RegClass::Float));
    }

    #[test]
    fn cond_eval() {
        assert!(Cond::Eq.eval(0));
        assert!(!Cond::Eq.eval(3));
        assert!(Cond::Ne.eval(-1));
        assert!(Cond::Lt.eval(-5));
        assert!(Cond::Ge.eval(0));
        assert!(Cond::Gt.eval(2));
        assert!(Cond::Le.eval(0));
    }

    fn uses(inst: &Inst) -> Vec<Reg> {
        let mut v = Vec::new();
        inst.for_each_use(|r| v.push(r));
        v
    }

    fn defs(inst: &Inst) -> Vec<Reg> {
        let mut v = Vec::new();
        inst.for_each_def(|r| v.push(r));
        v
    }

    #[test]
    fn uses_and_defs() {
        let t = |i| Reg::Temp(Temp(i));
        let add = Inst::Op { op: OpCode::Add, dst: t(0), srcs: [t(1), t(2)].into() };
        assert_eq!(uses(&add), vec![t(1), t(2)]);
        assert_eq!(defs(&add), vec![t(0)]);

        let st = Inst::Store { src: t(3), base: t(4), offset: 2 };
        assert_eq!(uses(&st), vec![t(3), t(4)]);
        assert!(defs(&st).is_empty());

        let call = Inst::Call {
            callee: Callee::Ext(ExtFn::PutInt),
            arg_regs: vec![PhysReg::int(1)],
            ret_regs: vec![],
        };
        assert_eq!(uses(&call), vec![Reg::Phys(PhysReg::int(1))]);
        assert!(defs(&call).is_empty());
    }

    #[test]
    fn mutation_visits_rewritable_operands() {
        let t = |i| Reg::Temp(Temp(i));
        let mut add = Inst::Op { op: OpCode::Add, dst: t(0), srcs: [t(1), t(2)].into() };
        add.for_each_use_mut(|r| *r = Reg::Phys(PhysReg::int(7)));
        add.for_each_def_mut(|r| *r = Reg::Phys(PhysReg::int(8)));
        assert_eq!(uses(&add), vec![Reg::Phys(PhysReg::int(7)); 2]);
        assert_eq!(defs(&add), vec![Reg::Phys(PhysReg::int(8))]);
    }

    #[test]
    fn srcs_hold_up_to_two_registers_inline() {
        let t = |i| Reg::Temp(Temp(i));
        let mut s = Srcs::new();
        assert!(s.is_empty());
        assert_eq!(s.try_push(t(1)), Ok(()));
        assert_eq!(s.try_push(t(2)), Ok(()));
        assert_eq!(s.try_push(t(3)), Err(t(3)), "full");
        assert_eq!(&s[..], &[t(1), t(2)]);
        assert_eq!(s, Srcs::from([t(1), t(2)]));
        assert_eq!(format!("{s:?}"), format!("{:?}", vec![t(1), t(2)]));
        assert_eq!(s.pop(), Some(t(2)));
        // Equality reads only the live prefix.
        assert_eq!(s, Srcs::from([t(1)]));
        assert_eq!(s.pop(), Some(t(1)));
        assert_eq!(s.pop(), None);
        assert_eq!(s, Srcs::default());
        assert!(std::mem::size_of::<Srcs>() <= 2 * std::mem::size_of::<Reg>() + 4);
    }

    #[test]
    fn terminator_classification() {
        assert!(Inst::Jump { target: BlockId(0) }.is_terminator());
        assert!(Inst::Ret { ret_regs: vec![] }.is_terminator());
        assert!(!Inst::MovI { dst: Reg::Temp(Temp(0)), imm: 1 }.is_terminator());
    }

    #[test]
    fn branch_targets_dedup() {
        let b = Inst::Branch {
            cond: Cond::Ne,
            src: Reg::Temp(Temp(0)),
            then_tgt: BlockId(3),
            else_tgt: BlockId(3),
        };
        assert_eq!(b.branch_targets().collect::<Vec<_>>(), [BlockId(3)]);
    }

    #[test]
    fn spill_tags() {
        assert!(!SpillTag::None.is_spill());
        for k in SpillTag::SPILL_KINDS {
            assert!(k.is_spill());
        }
        assert_eq!(SpillTag::SPILL_KINDS.len(), 6);
    }

    #[test]
    fn printed_names_are_distinct() {
        fn distinct<T: Copy>(all: &[T], name: fn(T) -> &'static str) -> bool {
            let mut names: Vec<_> = all.iter().map(|&x| name(x)).collect();
            names.sort_unstable();
            names.dedup();
            names.len() == all.len()
        }
        assert!(distinct(&OpCode::ALL, OpCode::mnemonic));
        assert!(distinct(&Cond::ALL, Cond::mnemonic));
        assert!(distinct(&ExtFn::ALL, ExtFn::name));
        assert!(distinct(&SpillTag::SPILL_KINDS, SpillTag::name));
        for k in SpillTag::SPILL_KINDS {
            assert_eq!(k.name(), format!("{k:?}"));
        }
    }
}
