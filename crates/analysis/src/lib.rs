//! Shared CFG analyses for the register-allocation reproduction.
//!
//! The paper's methodology (§3) keeps everything except the central
//! allocation algorithm identical between the linear-scan and graph-coloring
//! configurations: CFG construction, liveness, loop-depth analysis,
//! dead-code elimination, and the peephole move-removal pass are common
//! infrastructure. This crate is that infrastructure:
//!
//! * [`Cfg`] — one function's successor/predecessor rows and reverse
//!   postorder, built once and shared by every consumer below;
//! * [`BitSet`] — dense bit vectors for the iterative dataflow problems;
//! * [`collections`] — flat hot-path containers (CSR rows, inline small
//!   vectors, epoch-stamped sets);
//! * [`Liveness`] — live-in/live-out per block, excluding block-local
//!   temporaries from the bit vectors as the paper does;
//! * [`Dominators`], [`LoopInfo`] — loop nesting for spill-cost weighting;
//! * [`Lifetimes`] — lifetimes, *lifetime holes* (§2.1), reference lists,
//!   and per-register blocked segments (register holes, §2.5), computed in
//!   one reverse pass over the linear order;
//! * [`eliminate_dead_code`], [`remove_identity_moves`] — the pre/post
//!   passes of the paper's pipeline;
//! * edge utilities ([`split_edge`], [`is_critical`]) for resolution.
//!
//! # Examples
//!
//! ```
//! use lsra_ir::{FunctionBuilder, MachineSpec, RegClass};
//! use lsra_analysis::{Lifetimes, Liveness};
//!
//! let spec = MachineSpec::alpha_like();
//! let mut b = FunctionBuilder::new(&spec, "f", &[RegClass::Int]);
//! let x = b.param(0);
//! let y = b.int_temp("y");
//! b.add(y, x, x);
//! b.ret(Some(y.into()));
//! let f = b.finish();
//!
//! let live = Liveness::compute(&f);
//! assert!(live.iterations <= 3);
//! let lt = Lifetimes::of(&f, &spec);
//! assert!(lt.lifetime(y).is_some());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bitset;
mod cfg;
pub mod collections;
mod dataflow;
mod dce;
mod dominators;
mod edges;
mod lifetimes;
mod liveness;
mod loops;
mod peephole;

pub use bitset::BitSet;
pub use cfg::{Cfg, Order};
pub use collections::{Csr, EpochSet, SmallVec};
pub use dataflow::{
    solve_backward, solve_forward_must, solve_must, BackwardSolution, ForwardMustSolution,
    MustSolution, MustState,
};
pub use dce::eliminate_dead_code;
pub use dominators::Dominators;
pub use edges::{is_critical, split_edge};
pub use lifetimes::{check_phys_block_local, AnalysisScratch, Lifetimes, Point, RefPoint, Segment};
pub use liveness::Liveness;
pub use loops::LoopInfo;
pub use peephole::remove_identity_moves;
