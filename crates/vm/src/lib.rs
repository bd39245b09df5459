//! Execution substrate for the register-allocation reproduction.
//!
//! The paper measures allocators by running compiled SPEC binaries on a
//! Digital Alpha and counting dynamic instructions with the HALT tool. This
//! crate substitutes an interpreter for that hardware:
//!
//! * [`Vm`] executes a module pre- or post-allocation and counts every
//!   executed instruction by [`lsra_ir::SpillTag`] category ([`DynCounts`]),
//!   which regenerates the paper's Tables 1-2 and Figure 3;
//! * caller-saved registers are poisoned at every call, so an allocation
//!   that wrongly keeps a value in a clobbered register faults with
//!   [`VmError::PoisonRead`];
//! * [`verify_allocation`] checks a rewritten module against the original
//!   by differential execution (return value, output trace, final memory).
//!
//! Execution covers the paths one input takes; `lsra_checker` proves an
//! allocation over all paths.
//!
//! # Examples
//!
//! ```
//! use lsra_ir::{FunctionBuilder, MachineSpec, ModuleBuilder};
//! use lsra_vm::run_module;
//!
//! let spec = MachineSpec::alpha_like();
//! let mut mb = ModuleBuilder::new("demo", 0);
//! let mut b = FunctionBuilder::new(&spec, "main", &[]);
//! let x = b.int_temp("x");
//! b.movi(x, 41);
//! let y = b.int_temp("y");
//! b.addi(y, x, 1);
//! b.ret(Some(y.into()));
//! let id = mb.add(b.finish());
//! mb.entry(id);
//! let module = mb.finish();
//!
//! let result = run_module(&module, &spec, &[])?;
//! assert_eq!(result.ret, Some(42));
//! # Ok::<(), lsra_vm::VmError>(())
//! ```

#![warn(missing_docs)]

mod counters;
mod error;
mod interp;
mod verify;

pub use counters::DynCounts;
pub use error::VmError;
pub use interp::{memory_checksum, run_module, OutputEvent, RunResult, Vm, VmOptions, MAX_WORDS};
pub use verify::{compare_runs, verify_allocation, Mismatch};
