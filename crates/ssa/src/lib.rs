//! SSA construction and destruction for `lsra-ir`.
//!
//! The IR deliberately has no phi instruction (the paper's allocators never
//! need one), so SSA form lives in a *side table*: [`construct`] computes
//! dominance frontiers, inserts pruned phi nodes as [`PhiNode`] records,
//! and renames every definition in place to a fresh temporary. [`lower`]
//! goes back out of SSA by turning each block's phi column into one
//! *parallel copy* per predecessor edge and sequencing it with the same
//! resolver the allocators use for cross-edge repair
//! ([`lsra_core::sequentialize`]) — register swaps in a phi cycle and a
//! resolution-edge swap are the same problem, so they share the solution.
//!
//! The ion allocator runs [`to_ssa_and_back`] as its first phase: renaming
//! splits every multi-definition lifetime into single-definition pieces
//! (maximal live-range precision for bundle building), and the lowering's
//! copies are exactly the move-coalescing candidates its bundle merging
//! eats back up.
//!
//! All inserted copies carry [`SpillTag::ResolveMove`], so the symbolic
//! checker and the VM's dynamic counters keep treating the untagged
//! instruction stream as the original program.
//!
//! # Examples
//!
//! ```
//! use lsra_ir::{Cond, FunctionBuilder, MachineSpec, RegClass};
//!
//! let spec = MachineSpec::alpha_like();
//! let mut b = FunctionBuilder::new(&spec, "max", &[RegClass::Int, RegClass::Int]);
//! let (x, y) = (b.param(0), b.param(1));
//! let m = b.int_temp("m");
//! let (t, e, j) = (b.block(), b.block(), b.block());
//! let c = b.int_temp("c");
//! b.sub(c, x, y);
//! b.branch(Cond::Gt, c, t, e);
//! b.switch_to(t);
//! b.mov(m, x);
//! b.jump(j);
//! b.switch_to(e);
//! b.mov(m, y);
//! b.jump(j);
//! b.switch_to(j);
//! b.ret(Some(m.into()));
//! let mut f = b.finish();
//!
//! let stats = lsra_ssa::to_ssa_and_back(&mut f);
//! assert_eq!(stats.phis, 1); // `m` merges at the join block
//! assert!(f.validate().is_ok());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use lsra_analysis::{Cfg, Dominators, Liveness};
use lsra_core::{sequentialize_into, EdgeOp};
use lsra_ir::{BlockId, Function, Ins, Inst, PhysReg, Reg, SpillTag, Temp};

/// One phi node: at the top of `block`, the SSA name `dst` selects among
/// `srcs` by incoming edge. `orig` is the pre-SSA temporary the phi merges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhiNode {
    /// The join block the phi lives at.
    pub block: BlockId,
    /// The pre-SSA temporary being merged.
    pub orig: Temp,
    /// The SSA name the phi defines.
    pub dst: Temp,
    /// `(predecessor, SSA name at that predecessor's bottom)`, one entry per
    /// distinct predecessor that carries a defined value. A predecessor with
    /// no reaching definition contributes no entry (the value is undefined
    /// along that edge, so no copy may read it).
    pub srcs: Vec<(BlockId, Temp)>,
}

/// The SSA overlay produced by [`construct`]: phi side table plus the
/// renaming's provenance map.
#[derive(Clone, Debug, Default)]
pub struct SsaForm {
    /// Every phi node, grouped by block in block order.
    pub phis: Vec<PhiNode>,
    /// For each temporary index (including the fresh SSA names), the pre-SSA
    /// temporary it renames.
    pub orig_of: Vec<Temp>,
    /// Number of temporaries before renaming.
    pub num_orig: usize,
}

impl SsaForm {
    /// The pre-SSA temporary behind `t` (identity for original temps).
    pub fn orig(&self, t: Temp) -> Temp {
        self.orig_of[t.index()]
    }
}

/// Counters from a [`to_ssa_and_back`] round trip.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SsaStats {
    /// Phi nodes inserted.
    pub phis: usize,
    /// Fresh SSA names created by renaming (phi dsts included).
    pub renamed: usize,
    /// Copies emitted by the out-of-SSA lowering (cycle-break moves
    /// included).
    pub copies: usize,
    /// Critical edges split to place copies.
    pub split_edges: usize,
}

/// Dominance frontier of every block (Cooper–Harvey–Kennedy: for each block
/// with two or more predecessors, walk each predecessor up the idom chain).
/// Unreachable blocks get empty frontiers.
pub fn dominance_frontiers(cfg: &Cfg, doms: &Dominators) -> Vec<Vec<BlockId>> {
    let mut df: Vec<Vec<BlockId>> = vec![Vec::new(); cfg.num_blocks()];
    for b in (0..cfg.num_blocks() as u32).map(BlockId) {
        if !cfg.is_reachable(b) || cfg.preds(b).len() < 2 {
            continue;
        }
        let Some(idom) = doms.idom(b) else { continue };
        for &p in cfg.preds(b) {
            if !cfg.is_reachable(p) {
                continue;
            }
            let mut runner = p;
            while runner != idom {
                if !df[runner.index()].contains(&b) {
                    df[runner.index()].push(b);
                }
                match doms.idom(runner) {
                    Some(d) if d != runner => runner = d,
                    _ => break,
                }
            }
        }
    }
    df
}

/// Puts `f` into pruned SSA form: phi nodes (side table) wherever a liveness
/// merge requires one, and every definition renamed to a fresh temporary.
/// Instruction *count and order* are untouched — only operands change — so
/// positional pairing against the original program survives, and `cfg`
/// (built from `f`) still describes the result.
pub fn construct(f: &mut Function, cfg: &Cfg) -> SsaForm {
    let doms = Dominators::compute(f, cfg);
    let df = dominance_frontiers(cfg, &doms);
    let live = Liveness::compute_on(f, cfg, 1);
    let num_orig = f.num_temps();

    // Blocks containing a definition of each temp (reachable only).
    let mut def_blocks: Vec<Vec<BlockId>> = vec![Vec::new(); num_orig];
    for b in f.block_ids() {
        if !cfg.is_reachable(b) {
            continue;
        }
        for ins in &f.block(b).insts {
            ins.inst.for_each_def(|r| {
                if let Reg::Temp(t) = r {
                    if def_blocks[t.index()].last() != Some(&b) {
                        def_blocks[t.index()].push(b);
                    }
                }
            });
        }
    }

    // Pruned phi insertion: iterated dominance frontier of the def blocks,
    // filtered by liveness (a phi is only needed where the merged value is
    // live into the join).
    let mut phis: Vec<PhiNode> = Vec::new();
    let mut phi_at: Vec<Vec<u32>> = vec![Vec::new(); f.num_blocks()];
    let mut placed = vec![u32::MAX; f.num_blocks()];
    let mut enqueued = vec![u32::MAX; f.num_blocks()];
    let mut work: Vec<BlockId> = Vec::new();
    #[allow(clippy::needless_range_loop)] // `ti` is the temp id, not just an index
    for ti in 0..num_orig {
        let t = Temp(ti as u32);
        // A def set whose every block has an empty frontier has an empty
        // iterated frontier: no phi anywhere (straight-line temps).
        if def_blocks[ti].iter().all(|&b| df[b.index()].is_empty()) {
            continue;
        }
        work.clear();
        for &b in &def_blocks[ti] {
            enqueued[b.index()] = ti as u32;
            work.push(b);
        }
        while let Some(b) = work.pop() {
            for &d in &df[b.index()] {
                if placed[d.index()] == ti as u32 || !live.is_live_in(d, t) {
                    continue;
                }
                placed[d.index()] = ti as u32;
                phi_at[d.index()].push(phis.len() as u32);
                phis.push(PhiNode { block: d, orig: t, dst: Temp(u32::MAX), srcs: Vec::new() });
                if enqueued[d.index()] != ti as u32 {
                    enqueued[d.index()] = ti as u32;
                    work.push(d);
                }
            }
        }
    }

    // Renaming: preorder walk of the dominator tree with one name stack per
    // original temp. Iterative — enter actions rewrite a block and push
    // names; leave actions pop what the block pushed.
    let mut children: Vec<Vec<BlockId>> = vec![Vec::new(); f.num_blocks()];
    for b in f.block_ids() {
        if b == f.entry() {
            continue;
        }
        if let Some(d) = doms.idom(b) {
            if d != b {
                children[d.index()].push(b);
            }
        }
    }
    let mut orig_of: Vec<Temp> = (0..num_orig as u32).map(Temp).collect();
    let mut stack: Vec<Vec<Temp>> = vec![Vec::new(); num_orig];
    enum Step {
        Enter(BlockId),
        Leave(usize), // index into `pushed_frames`
    }
    let mut pushed_frames: Vec<Vec<Temp>> = Vec::new();
    let mut steps = vec![Step::Enter(f.entry())];
    while let Some(step) = steps.pop() {
        match step {
            Step::Leave(frame) => {
                for &o in pushed_frames[frame].iter().rev() {
                    stack[o.index()].pop();
                }
            }
            Step::Enter(b) => {
                let mut pushed: Vec<Temp> = Vec::new();
                // Phi definitions sit above the block's first instruction.
                for &pi in &phi_at[b.index()] {
                    let o = phis[pi as usize].orig;
                    let fresh = f.new_temp(f.temp_class(o), None);
                    orig_of.push(o);
                    phis[pi as usize].dst = fresh;
                    stack[o.index()].push(fresh);
                    pushed.push(o);
                }
                let n = f.block(b).insts.len();
                for k in 0..n {
                    f.block_mut(b).insts[k].inst.for_each_use_mut(|r| {
                        if let Reg::Temp(t) = *r {
                            // Operand temps are still pre-SSA names here: each
                            // block is rewritten exactly once.
                            if let Some(&cur) = stack[t.index()].last() {
                                *r = Reg::Temp(cur);
                            }
                        }
                    });
                    let mut def: Option<Temp> = None;
                    f.block(b).insts[k].inst.for_each_def(|r| {
                        if let Reg::Temp(t) = r {
                            def = Some(t);
                        }
                    });
                    if let Some(o) = def {
                        let fresh = f.new_temp(f.temp_class(o), None);
                        orig_of.push(o);
                        stack[o.index()].push(fresh);
                        pushed.push(o);
                        f.block_mut(b).insts[k].inst.for_each_def_mut(|r| {
                            if let Reg::Temp(_) = *r {
                                *r = Reg::Temp(fresh);
                            }
                        });
                    }
                }
                // Feed successor phis the names current at this bottom. Each
                // block is entered once and lists a successor once (a Branch
                // with both targets equal is one edge), so a phi gets at most
                // one source per predecessor.
                for &s in cfg.succs(b) {
                    for &pi in &phi_at[s.index()] {
                        let phi = &mut phis[pi as usize];
                        if let Some(&cur) = stack[phi.orig.index()].last() {
                            phi.srcs.push((b, cur));
                        }
                        // Empty stack: no definition dominates this edge, so
                        // the value is undefined along it — no source entry.
                    }
                }
                let frame = pushed_frames.len();
                pushed_frames.push(pushed);
                steps.push(Step::Leave(frame));
                for &c in children[b.index()].iter().rev() {
                    steps.push(Step::Enter(c));
                }
            }
        }
    }

    SsaForm { phis, orig_of, num_orig }
}

/// Sequences the parallel copy `moves` (`(dst, src)` temp pairs) into move
/// instructions, breaking register-style cycles through a fresh scratch
/// temporary. Reuses [`lsra_core::sequentialize_into`] by mapping the
/// (bounded) set of distinct temps onto synthetic physical indices.
fn sequence_copy(f: &mut Function, moves: &[(Temp, Temp)], stats: &mut SsaStats) -> Vec<Ins> {
    let mut out = Vec::new();
    let mut names: Vec<Temp> = Vec::new();
    for &(d, s) in moves {
        if d == s {
            continue;
        }
        for t in [d, s] {
            if !names.contains(&t) {
                names.push(t);
            }
        }
    }
    if names.is_empty() {
        return out;
    }
    if names.len() > 250 {
        // The synthetic-register trick caps at the u8 register index; huge
        // copy groups fall back to the always-correct two-step form.
        let mut staged: Vec<(Temp, Temp)> = Vec::new();
        for &(d, s) in moves {
            if d == s {
                continue;
            }
            let tmp = f.new_temp(f.temp_class(s), None);
            out.push(Ins::tagged(
                Inst::Mov { dst: Reg::Temp(tmp), src: Reg::Temp(s) },
                SpillTag::ResolveMove,
            ));
            staged.push((d, tmp));
        }
        for (d, tmp) in staged {
            out.push(Ins::tagged(
                Inst::Mov { dst: Reg::Temp(d), src: Reg::Temp(tmp) },
                SpillTag::ResolveMove,
            ));
        }
        stats.copies += out.len();
        return out;
    }
    let synth = |t: Temp| PhysReg::int(names.iter().position(|&x| x == t).unwrap() as u8);
    let ops: Vec<EdgeOp> = moves
        .iter()
        .filter(|&&(d, s)| d != s)
        // The op's `temp` is the copy's destination — unique per op, so the
        // cycle-break callback below can key scratch temps on it.
        .map(|&(d, s)| EdgeOp::Move { temp: d, src: synth(s), dst: synth(d) })
        .collect();
    let mut seq = Vec::new();
    let mut scratch_of: Vec<(Temp, Temp)> = Vec::new();
    sequentialize_into(&ops, &mut seq, |broken| {
        let tmp = f.new_temp(f.temp_class(broken), None);
        scratch_of.push((broken, tmp));
    });
    let real = |r: Reg| names[r.as_phys().expect("synthetic reg").index as usize];
    let scratch =
        |t: Temp| scratch_of.iter().find(|&&(k, _)| k == t).expect("scratch for cycle break").1;
    for (inst, _) in seq {
        let mov = match inst {
            Inst::Mov { dst, src } => {
                Inst::Mov { dst: Reg::Temp(real(dst)), src: Reg::Temp(real(src)) }
            }
            // Cycle breaks come back as spill traffic against the broken
            // op's `temp`; in temp-space they are plain moves through the
            // fresh scratch.
            Inst::SpillStore { src, temp } => {
                Inst::Mov { dst: Reg::Temp(scratch(temp)), src: Reg::Temp(real(src)) }
            }
            Inst::SpillLoad { dst, temp } => {
                Inst::Mov { dst: Reg::Temp(real(dst)), src: Reg::Temp(scratch(temp)) }
            }
            other => unreachable!("sequentialize emitted {other:?}"),
        };
        out.push(Ins::tagged(mov, SpillTag::ResolveMove));
    }
    stats.copies += out.len();
    out
}

/// Lowers the phi side table back to executable copies: one parallel copy
/// per (phi block, predecessor) edge, placed at the predecessor's bottom
/// when it has a single successor and on a freshly split edge otherwise.
/// `cfg` is the graph [`construct`] ran on; a split only retargets the
/// predecessor, so its successor count there stays exact.
pub fn lower(f: &mut Function, cfg: &Cfg, form: &SsaForm, stats: &mut SsaStats) {
    debug_assert_eq!(cfg.num_blocks(), f.num_blocks());
    // Group phi sources by (join block, predecessor) edge, preserving block
    // order for determinism.
    type EdgeMoves = (BlockId, BlockId, Vec<(Temp, Temp)>);
    let mut groups: Vec<EdgeMoves> = Vec::new();
    for phi in &form.phis {
        for &(p, src) in &phi.srcs {
            match groups.iter_mut().find(|(blk, pred, _)| *blk == phi.block && *pred == p) {
                Some((_, _, moves)) => moves.push((phi.dst, src)),
                None => groups.push((phi.block, p, vec![(phi.dst, src)])),
            }
        }
    }
    for (succ, pred, moves) in groups {
        let seq = sequence_copy(f, &moves, stats);
        if seq.is_empty() {
            continue;
        }
        let at_block = if cfg.succs(pred).len() == 1 {
            pred
        } else {
            // Critical edge: the predecessor branches, so the copy needs its
            // own block. (Operands are still virtual, so clobbering is not a
            // concern — splitting keeps the copy off the other edge.)
            stats.split_edges += 1;
            lsra_analysis::split_edge(f, pred, succ)
        };
        let blk = f.block_mut(at_block);
        let at = blk.insts.len() - 1;
        blk.insts.splice(at..at, seq);
    }
}

/// Constructs SSA and immediately lowers it back out: the net effect is a
/// semantics-preserving rename that gives every value merge an explicit
/// parallel copy. This is ion's live-range pre-splitting phase; it is also
/// a complete round-trip test vehicle for the SSA machinery.
pub fn to_ssa_and_back(f: &mut Function) -> SsaStats {
    let cfg = Cfg::compute(f);
    let form = construct(f, &cfg);
    let mut stats = SsaStats {
        phis: form.phis.len(),
        renamed: f.num_temps() - form.num_orig,
        ..SsaStats::default()
    };
    lower(f, &cfg, &form, &mut stats);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsra_ir::{Cond, FunctionBuilder, MachineSpec, RegClass};

    fn diamond() -> (MachineSpec, Function) {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "diamond", &[RegClass::Int]);
        let p = b.param(0);
        let x = b.int_temp("x");
        let (t, e, j) = (b.block(), b.block(), b.block());
        b.branch(Cond::Gt, p, t, e);
        b.switch_to(t);
        b.movi(x, 10);
        b.jump(j);
        b.switch_to(e);
        b.movi(x, 20);
        b.jump(j);
        b.switch_to(j);
        let y = b.int_temp("y");
        b.add(y, x, x);
        b.ret(Some(y.into()));
        let f = b.finish();
        (spec, f)
    }

    fn run(f: &Function, spec: &MachineSpec, arg: i64) -> i64 {
        let mut mb = lsra_ir::ModuleBuilder::new("m", 0);
        let callee = mb.add(f.clone());
        let mut wrapper = FunctionBuilder::new(spec, "main", &[]);
        let a = wrapper.int_temp("a");
        wrapper.movi(a, arg);
        let r = wrapper.call_func(callee, &[a.into()], Some(RegClass::Int)).unwrap();
        wrapper.ret(Some(r.into()));
        let main = mb.add(wrapper.finish());
        mb.entry(main);
        let m = mb.finish();
        let res = lsra_vm::run_module(&m, spec, &[]).expect("vm run");
        res.ret.expect("return value")
    }

    #[test]
    fn diamond_gets_one_phi_and_runs_identically() {
        let (spec, mut f) = diamond();
        let before_t = run(&f, &spec, 5);
        let before_e = run(&f, &spec, -5);
        let stats = to_ssa_and_back(&mut f);
        assert_eq!(stats.phis, 1, "x merges at the join");
        assert!(stats.copies >= 2, "each arm feeds the phi");
        f.validate().expect("lowered function validates");
        assert_eq!(run(&f, &spec, 5), before_t);
        assert_eq!(run(&f, &spec, -5), before_e);
    }

    #[test]
    fn renaming_leaves_instruction_count_in_place() {
        let (_, mut f) = diamond();
        let before: usize = f.num_insts();
        let cfg = Cfg::compute(&f);
        let form = construct(&mut f, &cfg);
        assert_eq!(f.num_insts(), before, "construct only renames");
        // Every fresh temp maps back to an original.
        for (i, &o) in form.orig_of.iter().enumerate() {
            assert!(o.index() < form.num_orig, "temp {i} maps to fresh temp {o}");
        }
    }

    #[test]
    fn loop_carried_phi_round_trips() {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "sum", &[RegClass::Int]);
        let n = b.param(0);
        let acc = b.int_temp("acc");
        b.movi(acc, 0);
        let (head, exit) = (b.block(), b.block());
        b.jump(head);
        b.switch_to(head);
        b.add(acc, acc, n);
        b.addi(n, n, -1);
        b.branch(Cond::Gt, n, head, exit);
        b.switch_to(exit);
        b.ret(Some(acc.into()));
        let mut f = b.finish();
        let before = run(&f, &spec, 4);
        let stats = to_ssa_and_back(&mut f);
        assert!(stats.phis >= 2, "acc and n both merge at the loop head");
        assert!(stats.split_edges >= 1, "the back edge from the branch splits");
        f.validate().expect("valid");
        assert_eq!(run(&f, &spec, 4), before);
        assert_eq!(before, 10);
    }

    #[test]
    fn swap_cycle_breaks_through_scratch() {
        // Two values swapped each iteration force a phi cycle whose parallel
        // copy needs a cycle break.
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "swap", &[RegClass::Int]);
        let n = b.param(0);
        let x = b.int_temp("x");
        let y = b.int_temp("y");
        b.movi(x, 1);
        b.movi(y, 100);
        let (head, body, exit) = (b.block(), b.block(), b.block());
        b.jump(head);
        b.switch_to(head);
        b.branch(Cond::Gt, n, body, exit);
        b.switch_to(body);
        let tx = b.int_temp("tx");
        b.mov(tx, x);
        b.mov(x, y);
        b.mov(y, tx);
        b.addi(n, n, -1);
        b.jump(head);
        b.switch_to(exit);
        let r = b.int_temp("r");
        b.sub(r, x, y);
        b.ret(Some(r.into()));
        let mut f = b.finish();
        let odd = run(&f, &spec, 3);
        let even = run(&f, &spec, 4);
        to_ssa_and_back(&mut f);
        f.validate().expect("valid");
        assert_eq!(run(&f, &spec, 3), odd);
        assert_eq!(run(&f, &spec, 4), even);
        assert_eq!(odd, -even);
    }

    #[test]
    fn all_inserted_copies_are_tagged() {
        let (_, mut f) = diamond();
        let untagged_before = f.count_insts(|_| true);
        to_ssa_and_back(&mut f);
        let untagged_after =
            f.blocks.iter().flat_map(|b| &b.insts).filter(|i| i.tag == SpillTag::None).count();
        assert_eq!(untagged_before, untagged_after, "original stream unchanged");
        for blk in &f.blocks {
            for ins in &blk.insts {
                if ins.tag != SpillTag::None {
                    assert!(matches!(ins.inst, Inst::Mov { .. }), "phi lowering emits only moves");
                }
            }
        }
    }
}
