//! Functions: CFGs of basic blocks plus the temporary table.

use std::fmt;

use crate::block::{Block, BlockId};
use crate::inst::{Inst, OpCode};
use crate::machine::MachineSpec;
use crate::reg::{PhysReg, Reg, RegClass, Temp};

/// Per-temporary metadata.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TempInfo {
    /// Register class the temporary must be allocated in.
    pub class: RegClass,
    /// Optional source-level name (for diagnostics and printing).
    pub name: Option<String>,
}

/// A spill-slot index within a function's frame.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SlotId(pub u32);

impl SlotId {
    /// Dense index of the slot in the frame.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A function: a list of basic blocks in *linear order* (the order the
/// linear-scan allocator sweeps, Figure 1b of the paper), a temporary table,
/// and — after allocation — a spill-slot assignment.
///
/// The entry block is always block 0.
#[derive(Clone, Debug, PartialEq)]
pub struct Function {
    /// The function's name.
    pub name: String,
    /// Basic blocks; vector order is the linear order and `blocks[0]` is the
    /// entry.
    pub blocks: Vec<Block>,
    /// Temporary metadata, indexed by [`Temp`].
    pub temps: Vec<TempInfo>,
    /// Parameter temporaries (for documentation/printing; parameter values
    /// arrive via explicit moves from argument registers in block 0).
    pub params: Vec<Temp>,
    /// Spill slot for each temporary that acquired a memory home, indexed by
    /// [`Temp`]. Filled in by register allocators.
    pub spill_slots: Vec<Option<SlotId>>,
    /// Number of spill slots in the frame.
    pub num_slots: u32,
    /// True once a register allocator has rewritten the function so that
    /// every operand is physical.
    pub allocated: bool,
}

impl Function {
    /// Creates an empty function (no blocks yet).
    pub fn new(name: impl Into<String>) -> Self {
        Function {
            name: name.into(),
            blocks: Vec::new(),
            temps: Vec::new(),
            params: Vec::new(),
            spill_slots: Vec::new(),
            num_slots: 0,
            allocated: false,
        }
    }

    /// The entry block id (always block 0).
    #[inline]
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Number of basic blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of temporaries (register candidates).
    #[inline]
    pub fn num_temps(&self) -> usize {
        self.temps.len()
    }

    /// Total instruction count across all blocks.
    pub fn num_insts(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Creates a fresh temporary of the given class.
    pub fn new_temp(&mut self, class: RegClass, name: Option<String>) -> Temp {
        let t = Temp(self.temps.len() as u32);
        self.temps.push(TempInfo { class, name });
        self.spill_slots.push(None);
        t
    }

    /// The register class of a temporary.
    #[inline]
    pub fn temp_class(&self, t: Temp) -> RegClass {
        self.temps[t.index()].class
    }

    /// The class of any register operand.
    pub fn reg_class(&self, r: Reg) -> RegClass {
        match r {
            Reg::Temp(t) => self.temp_class(t),
            Reg::Phys(p) => p.class,
        }
    }

    /// Returns (allocating on first request) the spill slot of `t`.
    pub fn slot_for(&mut self, t: Temp) -> SlotId {
        if let Some(s) = self.spill_slots[t.index()] {
            return s;
        }
        let s = SlotId(self.num_slots);
        self.num_slots += 1;
        self.spill_slots[t.index()] = Some(s);
        s
    }

    /// Appends a new empty block and returns its id.
    pub fn add_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block::new());
        id
    }

    /// Shared access to a block.
    #[inline]
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Mutable access to a block.
    #[inline]
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    /// All block ids in linear order.
    pub fn block_ids(&self) -> impl DoubleEndedIterator<Item = BlockId> + ExactSizeIterator {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Checks that `spec` has room for every instruction: all of an
    /// instruction's sources sit in registers at once, so none may read more
    /// distinct temporaries of one class than `spec` has registers of that
    /// class; and every physical register the function names must exist in
    /// its class on `spec` (dense numbering would otherwise alias `r2` of a
    /// two-register file to `f0`, or run past the last register). Every
    /// allocator would fail on such an instruction (panic, spin or wrong
    /// code), so callers reject it up front. Assumes [`Function::validate`]
    /// passed.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateError`] naming the first instruction that does
    /// not fit and its class, or else the first that names the
    /// highest-numbered register `spec` lacks, and that register.
    pub fn check_fits(&self, spec: &MachineSpec) -> Result<(), ValidateError> {
        self.fits(spec)?.map_or(Ok(()), |(_, e)| Err(e))
    }

    /// [`Function::check_fits`]'s one pass: `Err` for the first instruction
    /// reading too many temporaries of a class; else the highest-numbered
    /// physical register the function names that `spec` lacks, with the
    /// refusal naming it at the first instruction that names it. Naming the
    /// highest says how large the class would have to be.
    pub(crate) fn fits(
        &self,
        spec: &MachineSpec,
    ) -> Result<Option<(u8, ValidateError)>, ValidateError> {
        let mut reads: Vec<Temp> = Vec::new();
        let mut worst: Option<(PhysReg, BlockId, usize)> = None;
        for b in self.block_ids() {
            for (i, ins) in self.block(b).insts.iter().enumerate() {
                let mut name = |p: PhysReg| {
                    if p.index >= spec.num_regs(p.class)
                        && worst.is_none_or(|(w, _, _)| p.index > w.index)
                    {
                        worst = Some((p, b, i));
                    }
                };
                reads.clear();
                ins.inst.for_each_use(|r| match r {
                    Reg::Temp(t) if !reads.contains(&t) => reads.push(t),
                    Reg::Phys(p) => name(p),
                    Reg::Temp(_) => {}
                });
                ins.inst.for_each_def(|r| {
                    if let Reg::Phys(p) = r {
                        name(p);
                    }
                });
                for class in RegClass::ALL {
                    let n = reads.iter().filter(|&&t| self.temp_class(t) == class).count();
                    let have = spec.num_regs(class) as usize;
                    if n > have {
                        let word = class_word(class);
                        let msg = format!(
                            "does not fit the machine: reads {n} distinct {word} temporaries, \
                             but {} has {have} {word} register(s)",
                            spec.selector()
                        );
                        return Err(ValidateError {
                            func: self.name.clone(),
                            block: b,
                            inst: i,
                            msg,
                        });
                    }
                }
            }
        }
        let Some((p, block, inst)) = worst else { return Ok(None) };
        let (have, word) = (spec.num_regs(p.class), class_word(p.class));
        let msg = format!("names {p}, but {} has {have} {word} register(s)", spec.selector());
        Ok(Some((p.index, ValidateError { func: self.name.clone(), block, inst, msg })))
    }

    /// Counts the move instructions sourced from `op` (used by tests and the
    /// move-optimization statistics).
    pub fn count_insts(&self, mut pred: impl FnMut(&Inst) -> bool) -> usize {
        self.blocks.iter().flat_map(|b| &b.insts).filter(|i| pred(&i.inst)).count()
    }

    /// Static count of ALU operations using `op` (handy in tests).
    pub fn count_opcode(&self, op: OpCode) -> usize {
        self.count_insts(|i| matches!(i, Inst::Op { op: o, .. } if *o == op))
    }
}

/// The word messages use for `class`.
fn class_word(class: RegClass) -> &'static str {
    match class {
        RegClass::Int => "int",
        RegClass::Float => "float",
    }
}

/// A structural or type error found by [`Function::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ValidateError {
    /// Offending function.
    pub func: String,
    /// Offending block.
    pub block: BlockId,
    /// Instruction index within the block.
    pub inst: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "in {}, {} inst {}: {}", self.func, self.block, self.inst, self.msg)
    }
}

impl std::error::Error for ValidateError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Cond;

    fn skeleton() -> Function {
        let mut f = Function::new("t");
        let b0 = f.add_block();
        f.block_mut(b0).insts.push(Inst::Ret { ret_regs: vec![] }.into());
        f
    }

    #[test]
    fn fresh_temps_are_dense() {
        let mut f = Function::new("t");
        let a = f.new_temp(RegClass::Int, None);
        let b = f.new_temp(RegClass::Float, Some("x".into()));
        assert_eq!(a, Temp(0));
        assert_eq!(b, Temp(1));
        assert_eq!(f.temp_class(a), RegClass::Int);
        assert_eq!(f.temp_class(b), RegClass::Float);
    }

    #[test]
    fn slots_are_stable() {
        let mut f = Function::new("t");
        let a = f.new_temp(RegClass::Int, None);
        let b = f.new_temp(RegClass::Int, None);
        let s1 = f.slot_for(a);
        let s2 = f.slot_for(b);
        assert_ne!(s1, s2);
        assert_eq!(f.slot_for(a), s1, "slot assignment must be idempotent");
        assert_eq!(f.num_slots, 2);
    }

    #[test]
    fn validate_accepts_minimal_function() {
        assert_eq!(skeleton().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_class_mismatch() {
        let mut f = skeleton();
        let t = f.new_temp(RegClass::Float, None);
        f.block_mut(BlockId(0)).insts.insert(
            0,
            Inst::Op {
                op: OpCode::Add,
                dst: Reg::Temp(t),
                srcs: [Reg::Temp(t), Reg::Temp(t)].into(),
            }
            .into(),
        );
        assert!(f.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_branch_target() {
        let mut f = skeleton();
        let t = f.new_temp(RegClass::Int, None);
        let b1 = f.add_block();
        f.block_mut(b1).insts.push(
            Inst::Branch {
                cond: Cond::Ne,
                src: Reg::Temp(t),
                then_tgt: BlockId(9),
                else_tgt: BlockId(0),
            }
            .into(),
        );
        assert!(f.validate().is_err());
    }

    #[test]
    fn validate_rejects_virtuals_after_allocation() {
        let mut f = skeleton();
        let t = f.new_temp(RegClass::Int, None);
        f.block_mut(BlockId(0)).insts.insert(0, Inst::MovI { dst: Reg::Temp(t), imm: 1 }.into());
        assert!(f.validate().is_ok());
        f.allocated = true;
        assert!(f.validate().is_err());
    }

    #[test]
    fn check_fits_counts_distinct_reads_per_class() {
        let mut f = skeleton();
        let x = f.new_temp(RegClass::Float, None);
        let y = f.new_temp(RegClass::Float, None);
        let add = |a, b| Inst::Op {
            op: OpCode::FAdd,
            dst: Reg::Temp(x),
            srcs: [Reg::Temp(a), Reg::Temp(b)].into(),
        };
        f.block_mut(BlockId(0)).insts.insert(0, add(x, x).into());
        assert_eq!(f.check_fits(&MachineSpec::small(2, 1)), Ok(()), "one distinct read");
        f.block_mut(BlockId(0)).insts.insert(1, add(x, y).into());
        let e = f.check_fits(&MachineSpec::small(2, 1)).unwrap_err();
        assert_eq!((e.block, e.inst), (BlockId(0), 1));
        assert_eq!(
            e.to_string(),
            "in t, b0 inst 1: does not fit the machine: reads 2 distinct float temporaries, \
             but small:2,1 has 1 float register(s)"
        );
        assert_eq!(f.check_fits(&MachineSpec::small(2, 2)), Ok(()));
    }

    #[test]
    fn check_fits_refuses_registers_the_machine_lacks() {
        let mut f = skeleton();
        let x = f.new_temp(RegClass::Int, None);
        let arg = |i| Inst::Mov { dst: Reg::Temp(x), src: Reg::Phys(PhysReg::int(i)) }.into();
        f.block_mut(BlockId(0)).insts.insert(0, arg(2));
        f.block_mut(BlockId(0)).insts.insert(1, arg(3));
        f.block_mut(BlockId(0)).insts.insert(2, arg(1));
        // r3 lies past the end of a three-register class.
        let e = f.check_fits(&MachineSpec::small(3, 2)).unwrap_err();
        assert_eq!(e.to_string(), "in t, b0 inst 1: names r3, but small:3,2 has 3 int register(s)");
        // Dense numbering would alias r2 of a two-register class to f0; both
        // r2 and r3 are missing, and the highest is named, not the first.
        let e = f.check_fits(&MachineSpec::small(2, 1)).unwrap_err();
        assert_eq!(e.to_string(), "in t, b0 inst 1: names r3, but small:2,1 has 2 int register(s)");
        assert_eq!(f.check_fits(&MachineSpec::small(4, 2)), Ok(()));
        // A float register past the end of its class, named by a return.
        let ret = Inst::Ret { ret_regs: vec![PhysReg::float(1)] }.into();
        *f.block_mut(BlockId(0)).insts.last_mut().unwrap() = ret;
        let e = f.check_fits(&MachineSpec::small(4, 1)).unwrap_err();
        assert_eq!(
            e.to_string(),
            "in t, b0 inst 3: names f1, but small:4,1 has 1 float register(s)"
        );
    }
}
