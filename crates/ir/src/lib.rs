//! A load/store machine IR for register-allocation research.
//!
//! This crate is the substrate of a reproduction of Traub, Holloway &
//! Smith, *Quality and Speed in Linear-scan Register Allocation* (PLDI
//! 1998). It models the essential features of the paper's target — the
//! Digital Alpha compiled through Machine SUIF:
//!
//! * two register files ([`RegClass::Int`], [`RegClass::Float`]) that cannot
//!   exchange values except through memory;
//! * virtual *temporaries* ([`Temp`]) as allocation candidates, mixed with
//!   precolored physical registers ([`PhysReg`]) at call boundaries;
//! * explicit parameter/argument/return-value moves, the motivating case of
//!   the paper's move optimization (§2.5);
//! * a calling convention with caller- and callee-saved registers
//!   ([`MachineSpec`]), which the binpacking allocator models as *register
//!   lifetime holes*;
//! * allocator-inserted spill code carrying provenance tags ([`SpillTag`])
//!   so dynamic spill-code composition (the paper's Figure 3) can be
//!   measured.
//!
//! # Examples
//!
//! Build a function that sums its argument with a constant:
//!
//! ```
//! use lsra_ir::{FunctionBuilder, MachineSpec, RegClass};
//!
//! let spec = MachineSpec::alpha_like();
//! let mut b = FunctionBuilder::new(&spec, "add1", &[RegClass::Int]);
//! let x = b.param(0);
//! let one = b.int_temp("one");
//! let sum = b.int_temp("sum");
//! b.movi(one, 1);
//! b.add(sum, x, one);
//! b.ret(Some(sum.into()));
//! let f = b.finish();
//! assert_eq!(f.num_temps(), 3);
//! println!("{f}");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod block;
mod builder;
mod display;
mod function;
mod hash;
mod inst;
mod machine;
mod module;
pub mod parse;
mod reg;
mod rules;

pub use block::{Block, BlockId};
pub use builder::{FunctionBuilder, ModuleBuilder};
pub use function::{Function, SlotId, TempInfo, ValidateError};
pub use hash::{fnv64, fnv64_extend, FnvBuildHasher, FnvHasher, FNV64_OFFSET};
pub use inst::{Callee, Cond, ExtFn, FuncId, Ins, Inst, OpCode, SpillTag, Srcs};
pub use machine::MachineSpec;
pub use module::Module;
pub use parse::{
    parse_function, parse_function_with_lines, parse_module, parse_module_syntax,
    parse_module_with_lines, validate_with_lines, FunctionLines, ModuleLines, ParseError,
};
pub use reg::{PhysReg, Reg, RegClass, Temp};
pub use rules::{Finding, FindingKind};
