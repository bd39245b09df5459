//! Independent validation tooling for register allocations.
//!
//! The paper's correctness burden sits on the resolution and consistency
//! machinery (§2.3–2.4) — exactly where linear-scan allocators hide
//! wrong-value bugs that execution-based tests miss. This crate supplies
//! the two pieces of an allocator-independent validation loop:
//!
//! * [`check_function`] / [`check_module`] — a *symbolic* dataflow checker
//!   over allocated code. It tracks, per physical register and spill slot,
//!   the set of temporaries whose value the location is guaranteed to hold
//!   (joins intersect, calls clobber caller-saved registers,
//!   allocator-inserted moves/loads/stores transfer symbol sets), and
//!   rejects any use that can read a location not guaranteed to hold that
//!   use's temporary. A *written* symbol also marks every location that
//!   holds some value, so an allocator-inserted move, reload or spill store
//!   that copies from a location nothing wrote is rejected too.
//! * [`shrink_module`] — a delta-debugging minimizer that reduces a failing
//!   module to a small `.lsra`-printable repro by dropping functions,
//!   truncating and simplifying control flow, and deleting instructions,
//!   re-running a caller-supplied failure oracle after each candidate edit.
//!
//! Both are pure over [`lsra_ir`] and know nothing about any particular
//! allocator, so they can referee all of them.

#![warn(missing_docs)]

mod shrink;
mod symbolic;

pub use shrink::{shrink_module, ShrinkStats};
pub use symbolic::{check_function, check_module, CheckError};
