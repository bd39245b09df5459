//! Reusable allocation scratch space.
//!
//! Allocating a function needs a dozen per-temp / per-register / per-block
//! working vectors plus several small per-instruction buffers. Allocating a
//! *module* used to pay those heap allocations again for every function;
//! [`AllocScratch`] owns them instead, so `allocate_module` (and any caller
//! that allocates many functions in sequence) clears and reuses the same
//! capacity across functions.
//!
//! # Reuse invariants
//!
//! Everything in here is *dead state between functions*: each consumer
//! (`scan`, `two_pass`, `point`, `resolve`) takes the buffers it needs at entry,
//! `clear()`s and `resize()`s them to the current function's dimensions, and
//! hands them back when it returns. No value computed for one function may
//! influence the allocation of the next — the determinism test
//! (`tests/determinism.rs`) checks that a reused scratch produces output
//! byte-identical to a fresh one. When adding a buffer, reset it where it is
//! taken, not where it is returned.

use lsra_analysis::{AnalysisScratch, BitSet, Csr, EpochSet};
use lsra_ir::{Ins, PhysReg, Temp};

use crate::point::PointScratch;
use crate::resolve::EdgeRepair;
use crate::scan::Loc;

/// Reusable working memory for allocating one function at a time.
///
/// Create one per worker thread and pass it to
/// [`BinpackAllocator::allocate_function_reusing`]
/// (crate::BinpackAllocator::allocate_function_reusing) for every function
/// the worker processes. `Default::default()` is an empty scratch; buffers
/// grow to the largest function seen and stay allocated.
#[derive(Debug, Default)]
pub struct AllocScratch {
    // ---- analysis: lifetime event lists and CSR backing ----
    pub(crate) analysis: AnalysisScratch,
    // ---- scan: per-register / per-temp / per-block state ----
    pub(crate) occupant: Vec<Option<Temp>>,
    pub(crate) loc: Vec<Loc>,
    pub(crate) consistent: Vec<bool>,
    pub(crate) wrote_local: EpochSet,
    pub(crate) used_local: EpochSet,
    pub(crate) seg_cur: Vec<usize>,
    pub(crate) ref_cur: Vec<usize>,
    pub(crate) blk_cur: Vec<usize>,
    pub(crate) last_reg: Vec<Option<usize>>,
    pub(crate) pending_owner: Vec<Option<Temp>>,
    // ---- scan: per-instruction buffers ----
    pub(crate) pre: Vec<Ins>,
    pub(crate) exclude: Vec<usize>,
    pub(crate) use_map: Vec<(Temp, PhysReg)>,
    pub(crate) def_exclude: Vec<usize>,
    // ---- scan: per-block buffer ----
    pub(crate) live_in: Vec<Temp>,
    // ---- scan: convention-sweep event queue ----
    pub(crate) blocked_events: Vec<(lsra_analysis::Point, u32)>,
    pub(crate) sweep_buf: Vec<u32>,
    // ---- scan: incremental free-hole candidate structure ----
    pub(crate) free_candidates: Vec<u64>,
    pub(crate) interesting: Vec<u64>,
    pub(crate) hole_expiry:
        std::collections::BinaryHeap<std::cmp::Reverse<(lsra_analysis::Point, u32)>>,
    // ---- scan: liveness/blocked-segment query memos ----
    pub(crate) unblocked_cache:
        Vec<(lsra_analysis::Point, lsra_analysis::Point, Option<lsra_analysis::Point>)>,
    pub(crate) live_cache: Vec<(lsra_analysis::Point, lsra_analysis::Point, bool)>,
    // ---- scan output backing (CSR location maps, consistency vectors) ----
    pub(crate) top_map: Csr<(Temp, PhysReg)>,
    pub(crate) bottom_map: Csr<(Temp, PhysReg)>,
    pub(crate) consistent_bottom: Vec<BitSet>,
    pub(crate) used_consistency: Vec<BitSet>,
    pub(crate) wrote_tr: Vec<BitSet>,
    // ---- resolve: edge snapshot and per-edge buffers ----
    pub(crate) edge: EdgeRepair,
    // ---- two-pass: per-register occupancy, per-instruction buffers ----
    pub(crate) point: PointScratch,
}

impl AllocScratch {
    /// Returns the scan-output containers (taken at [`crate::scan::Scanner::new`])
    /// so the next function reuses their backing storage.
    pub(crate) fn recycle_scan(&mut self, out: crate::scan::ScanOutput) {
        self.top_map = out.top_map;
        self.bottom_map = out.bottom_map;
        self.consistent_bottom = out.consistent_bottom;
        self.used_consistency = out.used_consistency;
        self.wrote_tr = out.wrote_tr;
    }
}

/// Clears a vector and resizes it to `n` copies of `v`, keeping capacity.
pub(crate) fn reset<T: Clone>(buf: &mut Vec<T>, n: usize, v: T) {
    buf.clear();
    buf.resize(n, v);
}

/// Takes `n` bit sets over universe `ng` out of `buf`, reusing the word
/// buffers of previous functions.
pub(crate) fn take_bitsets(buf: &mut Vec<BitSet>, n: usize, ng: usize) -> Vec<BitSet> {
    let mut v = std::mem::take(buf);
    v.truncate(n);
    for s in &mut v {
        s.reset(ng);
    }
    v.resize(n, BitSet::new(ng));
    v
}
