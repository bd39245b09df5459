//! The resolution phase (§2.4).
//!
//! The linear scan models control flow as a straight line, so the location
//! of a temporary assumed at the top of a block can disagree with its actual
//! location at the bottom of a CFG predecessor. This pass traverses every
//! CFG edge and repairs each mismatch with loads, stores, and moves —
//! sequencing the moves as a parallel copy (register swaps included) and
//! placing the repair code at the top of a single-predecessor head, the
//! bottom of a single-successor tail, or on a freshly split critical edge.
//!
//! It also runs the paper's `USED_C` iterative bit-vector dataflow to insert
//! the spill stores that make the store-suppression optimization (§2.3)
//! sound across all paths. Two kinds of suppression rely on consistency
//! facts that may have been inherited along the *linear* order rather than a
//! CFG path: eviction-store suppression during the scan (the paper's `Ut`)
//! and edge-store omission during resolution itself; both contribute GEN
//! bits here.

use lsra_analysis::{BitSet, Cfg, Liveness};
use lsra_ir::{BlockId, Function, Ins, Inst, PhysReg, SpillTag, Temp};
use lsra_trace::{ResolveOp, TraceEvent, TraceSink};

use crate::config::{BinpackConfig, ConsistencyMode};
use crate::parallel_move::{sequentialize_into, EdgeOp};
use crate::scan::ScanOutput;
use crate::scratch::AllocScratch;
use crate::stats::{AllocStats, Phase, PhaseTimer};

fn reg_of(map: &[(Temp, PhysReg)], t: Temp) -> Option<PhysReg> {
    map.binary_search_by_key(&t, |&(x, _)| x).ok().map(|i| map[i].1)
}

/// Gives `t` a spill slot, counting it in `stats.spilled_temps` the first
/// time.
pub fn ensure_slot(f: &mut Function, t: Temp, stats: &mut AllocStats) {
    if f.spill_slots[t.index()].is_none() {
        stats.spilled_temps += 1;
    }
    f.slot_for(t);
}

/// True if the block's terminator reads no register, so code may be placed
/// immediately before it.
fn terminator_is_placement_safe(f: &Function, b: BlockId) -> bool {
    let mut uses = 0;
    f.block(b).terminator().for_each_use(|_| uses += 1);
    uses == 0
}

/// The §2.4 edge repair shared by every allocator whose locations can
/// disagree across a CFG edge, with its reusable buffers: keep one per
/// worker so repairing allocates nothing per edge.
#[derive(Debug, Default)]
pub struct EdgeRepair {
    ops: Vec<EdgeOp>,
    seq: Vec<(Inst, SpillTag)>,
    spilled: Vec<Temp>,
}

impl EdgeRepair {
    /// Repairs every edge `p → s` of `cfg`, built from `f` before any
    /// split. `build(p, s, ops, sink)`
    /// pushes the location fixes the edge needs (tracing them as it likes);
    /// this routine does the rest:
    ///
    /// * sequences the fixes as one parallel copy, sending a register cycle
    ///   through one temporary's memory home (traced as `CycleBreak`);
    /// * gives every temporary that passes through memory a spill slot
    ///   ([`ensure_slot`]) and counts every inserted instruction;
    /// * places the code at the top of `s` if `p` is its only predecessor,
    ///   else at the bottom of `p` if `s` is its only successor and `p`'s
    ///   terminator reads no register, else in a new block splitting the
    ///   edge (footnote 1 of the paper).
    ///
    /// Edges come in `cfg`'s block order. A split only retargets `p`'s
    /// terminator, so `p`'s successor count in `cfg` stays exact.
    pub fn run(
        &mut self,
        f: &mut Function,
        cfg: &Cfg,
        stats: &mut AllocStats,
        sink: &mut dyn TraceSink,
        mut build: impl FnMut(BlockId, BlockId, &mut Vec<EdgeOp>, &mut dyn TraceSink),
    ) {
        debug_assert_eq!(cfg.num_blocks(), f.num_blocks());
        let EdgeRepair { ops, seq, spilled } = self;
        for (p, s) in cfg.edges() {
            ops.clear();
            build(p, s, ops, sink);
            if ops.is_empty() {
                continue;
            }
            spilled.clear();
            seq.clear();
            sequentialize_into(ops, seq, |t| spilled.push(t));
            if sink.enabled() {
                for &t in spilled.iter() {
                    let op = ResolveOp::CycleBreak { temp: t };
                    sink.event(&TraceEvent::EdgeOp { pred: p, succ: s, op });
                }
            }
            let through_memory = ops.iter().filter_map(|o| match o {
                EdgeOp::Store { temp, .. } | EdgeOp::Load { temp, .. } => Some(*temp),
                EdgeOp::Move { .. } => None,
            });
            for t in through_memory.chain(spilled.iter().copied()) {
                ensure_slot(f, t, stats);
            }
            for (_, tag) in seq.iter() {
                stats.record_insert(*tag);
            }
            let insns = seq.drain(..).map(|(inst, tag)| Ins::tagged(inst, tag));
            if cfg.preds(s).len() == 1 {
                f.block_mut(s).insts.splice(0..0, insns);
            } else if cfg.succs(p).len() == 1 && terminator_is_placement_safe(f, p) {
                let blk = f.block_mut(p);
                let at = blk.insts.len() - 1;
                blk.insts.splice(at..at, insns);
            } else {
                let split = lsra_analysis::split_edge(f, p, s);
                f.block_mut(split).insts.splice(0..0, insns);
            }
        }
    }
}

// Like the scan, resolution borrows its context individually.
#[allow(clippy::too_many_arguments)]
pub(crate) fn resolve(
    f: &mut Function,
    graph: &Cfg,
    live: &Liveness,
    scan: &ScanOutput,
    cfg: BinpackConfig,
    stats: &mut AllocStats,
    scratch: &mut AllocScratch,
    sink: &mut dyn TraceSink,
) {
    let mut timer = PhaseTimer::new(cfg.time_phases);
    let nb = scan.top_map.rows();
    let ng = live.num_globals();

    // GEN sets: the scan's eviction-suppression reliances, plus the
    // resolution edge-store omissions computed below (a temporary kept
    // consistent-in-register at a predecessor bottom while the successor
    // top expects it in memory relies on that consistency).
    let mut used_c_in: Vec<BitSet> = scan.used_consistency.clone();
    timer.mark_traced(stats, Phase::Resolve, sink);
    if cfg.consistency == ConsistencyMode::Iterative {
        for (p, s) in graph.edges() {
            for g in live.live_in(s).iter() {
                let t = live.temp_of(g);
                let loc_p = reg_of(scan.bottom_map.row(p.index()), t);
                let loc_s = reg_of(scan.top_map.row(s.index()), t);
                if loc_p.is_some()
                    && loc_s.is_none()
                    && scan.consistent_bottom[p.index()].contains(g)
                    && !scan.wrote_tr[p.index()].contains(g)
                {
                    used_c_in[p.index()].insert(g);
                }
            }
        }
        // Solve USED_C_in(b) = GEN(b) ∪ (∪_s USED_C_in(s) ∖ WROTE_TR(b))
        // to a fixed point (backward problem).
        let gen = used_c_in.clone();
        let order = (0..nb as u32).rev().map(BlockId);
        let sol = lsra_analysis::solve_backward(graph, ng, &gen, &scan.wrote_tr, order);
        used_c_in = sol.live_in;
        stats.iterations = sol.iterations;
        if sink.enabled() {
            sink.event(&TraceEvent::ConsistencyDone { iterations: sol.iterations });
        }
    }
    timer.mark_traced(stats, Phase::Consistency, sink);

    scratch.edge.run(f, graph, stats, sink, |p, s, ops, sink| {
        for g in live.live_in(s).iter() {
            let t = live.temp_of(g);
            let loc_p = reg_of(scan.bottom_map.row(p.index()), t);
            let loc_s = reg_of(scan.top_map.row(s.index()), t);
            let consistent_p = scan.consistent_bottom[p.index()].contains(g);
            let mut store = false;
            // The (Some, Some) branch's store repairs a downstream
            // consistency reliance rather than a location mismatch; the
            // trace distinguishes the two.
            let mut consistency_store = false;
            match (loc_p, loc_s) {
                (Some(r1), Some(r2)) => {
                    if r1 != r2 {
                        ops.push(EdgeOp::Move { temp: t, src: r1, dst: r2 });
                        if sink.enabled() {
                            let op = ResolveOp::Move { temp: t, src: r1, dst: r2 };
                            sink.event(&TraceEvent::EdgeOp { pred: p, succ: s, op });
                        }
                    }
                    // Consistency patch (§2.4): a path beginning here
                    // reaches a point that exploited register/memory
                    // consistency, but they are not consistent at p.
                    if cfg.consistency == ConsistencyMode::Iterative
                        && used_c_in[s.index()].contains(g)
                        && !consistent_p
                    {
                        store = true;
                        consistency_store = true;
                    }
                }
                (Some(_), None) => {
                    // Register at p, memory at s: store unless already
                    // consistent (if consistent, the omission's GEN bit was
                    // recorded above).
                    if !consistent_p {
                        store = true;
                    }
                }
                (None, Some(r2)) => {
                    ops.push(EdgeOp::Load { temp: t, dst: r2 });
                    if sink.enabled() {
                        let op = ResolveOp::Load { temp: t, dst: r2 };
                        sink.event(&TraceEvent::EdgeOp { pred: p, succ: s, op });
                    }
                }
                (None, None) => {}
            }
            if store {
                let r1 = loc_p.expect("store source must be a register");
                ops.push(EdgeOp::Store { temp: t, src: r1 });
                if sink.enabled() {
                    let op = if consistency_store {
                        ResolveOp::ConsistencyStore { temp: t, src: r1 }
                    } else {
                        ResolveOp::Store { temp: t, src: r1 }
                    };
                    sink.event(&TraceEvent::EdgeOp { pred: p, succ: s, op });
                }
            }
        }
    });
    timer.mark_traced(stats, Phase::Resolve, sink);
}
