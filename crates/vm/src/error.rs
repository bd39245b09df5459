//! Execution errors.

use std::fmt;

use lsra_ir::{FuncId, Reg};

/// An error raised during interpretation.
///
/// Besides genuine program faults (division by zero, out-of-bounds memory),
/// the VM reports *allocation bugs*: reading a register whose value was
/// destroyed by a call (the VM poisons caller-saved registers at every call)
/// or never written at all.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VmError {
    /// Integer division or remainder by zero.
    DivByZero {
        /// Function in which the fault occurred.
        func: FuncId,
    },
    /// Memory access outside `0..memory_words`.
    MemoryOutOfBounds {
        /// Function in which the fault occurred.
        func: FuncId,
        /// The offending word address.
        addr: i64,
    },
    /// A register or temporary was read while holding no valid value —
    /// either never written, or clobbered by an intervening call. This is
    /// how register-allocation bugs surface.
    PoisonRead {
        /// Function in which the fault occurred.
        func: FuncId,
        /// The offending operand.
        reg: Reg,
    },
    /// A spill slot was read before it was written.
    UninitializedSlot {
        /// Function in which the fault occurred.
        func: FuncId,
        /// The slot index.
        slot: u32,
    },
    /// The configured instruction budget was exhausted.
    FuelExhausted,
    /// The call stack exceeded its limit.
    StackOverflow,
    /// The module asks for more data memory, or a function for more spill
    /// slots in its frame, than [`crate::MAX_WORDS`].
    TooLarge {
        /// What is sized: data memory or one frame's spill slots.
        what: &'static str,
        /// How many the module asks for.
        words: usize,
    },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::DivByZero { func } => write!(f, "division by zero in @{}", func.0),
            VmError::MemoryOutOfBounds { func, addr } => {
                write!(f, "memory access out of bounds in @{}: address {addr}", func.0)
            }
            VmError::PoisonRead { func, reg } => {
                write!(f, "read of invalid register {reg} in @{} (allocation bug?)", func.0)
            }
            VmError::UninitializedSlot { func, slot } => {
                write!(f, "read of uninitialized spill slot {slot} in @{}", func.0)
            }
            VmError::FuelExhausted => write!(f, "instruction budget exhausted"),
            VmError::StackOverflow => write!(f, "call stack overflow"),
            VmError::TooLarge { what, words } => {
                write!(f, "{words} {what} exceed the VM's limit of {}", crate::MAX_WORDS)
            }
        }
    }
}

impl std::error::Error for VmError {}
