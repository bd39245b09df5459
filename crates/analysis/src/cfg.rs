//! The control-flow graph of one function: successor and predecessor rows
//! and a reverse postorder, built once from the terminators and shared by
//! every analysis, allocator and checker that walks the function's edges.
//!
//! A [`Cfg`] describes the function as it was when built. Splitting an edge
//! adds a block, so a consumer that runs after a split builds its own.

use lsra_ir::{BlockId, Function};

use crate::collections::Csr;

/// Successors, predecessors and reverse postorder of one function.
#[derive(Clone, Debug)]
pub struct Cfg {
    succs: Csr<BlockId>,
    preds: Csr<BlockId>,
    /// Blocks in reverse postorder (entry first); unreachable blocks are
    /// absent.
    pub rpo: Vec<BlockId>,
    /// Position of each block in `rpo`, or `usize::MAX` if unreachable.
    pub rpo_pos: Vec<usize>,
}

/// The name the benchmark package (`lsra-perf`), its only user, knows the
/// [`Cfg`] by.
pub type Order = Cfg;

impl Cfg {
    /// Builds the graph from `f`'s terminators: successors then-target
    /// first with equal branch arms once, predecessors their transpose in
    /// ascending block id (one entry per deduplicated edge), and the
    /// reverse postorder of a depth-first search from the entry that
    /// visits successors in row order.
    ///
    /// # Panics
    ///
    /// Panics if `f` has no blocks or a block does not end in a terminator.
    pub fn compute(f: &Function) -> Self {
        let n = f.num_blocks();
        let mut succs = Csr::new();
        // Counting sort: `offsets[s + 1]` first counts `s`'s predecessors.
        let mut offsets = vec![0u32; n + 1];
        for blk in &f.blocks {
            for s in blk.terminator().branch_targets() {
                succs.push(s);
                offsets[s.index() + 1] += 1;
            }
            succs.finish_row();
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut fill = offsets.clone();
        let mut pred_data = vec![BlockId(0); succs.len()];
        for p in f.block_ids() {
            for &s in succs.row(p.index()) {
                pred_data[fill[s.index()] as usize] = p;
                fill[s.index()] += 1;
            }
        }
        let preds = Csr::from_parts(offsets, pred_data);

        // Iterative DFS with a stack of (block, next successor index).
        let mut post = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        seen[f.entry().index()] = true;
        let mut stack = vec![(f.entry(), 0)];
        while let Some(top) = stack.last_mut() {
            let (b, i) = *top;
            match succs.row(b.index()).get(i) {
                Some(&s) => {
                    top.1 += 1;
                    if !seen[s.index()] {
                        seen[s.index()] = true;
                        stack.push((s, 0));
                    }
                }
                None => {
                    post.push(b);
                    stack.pop();
                }
            }
        }
        post.reverse();
        let mut rpo_pos = vec![usize::MAX; n];
        for (i, b) in post.iter().enumerate() {
            rpo_pos[b.index()] = i;
        }
        Cfg { succs, preds, rpo: post, rpo_pos }
    }

    /// Number of blocks the graph was built over.
    pub fn num_blocks(&self) -> usize {
        self.rpo_pos.len()
    }

    /// The entry block.
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Successors of `b`, then-target first.
    #[inline]
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        self.succs.row(b.index())
    }

    /// Predecessors of `b`, in ascending block id.
    #[inline]
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        self.preds.row(b.index())
    }

    /// Every edge `p → s`, in block order of `p` and row order of `s`.
    pub fn edges(&self) -> impl Iterator<Item = (BlockId, BlockId)> + '_ {
        (0..self.num_blocks() as u32)
            .map(BlockId)
            .flat_map(move |p| self.succs(p).iter().map(move |&s| (p, s)))
    }

    /// True if `b` is reachable from the entry.
    #[inline]
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_pos[b.index()] != usize::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsra_ir::{Cond, FunctionBuilder, Inst, MachineSpec, Reg, RegClass};

    fn diamond() -> Function {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "d", &[]);
        let t = b.int_temp("t");
        b.movi(t, 1);
        let l = b.block();
        let r = b.block();
        let j = b.block();
        b.branch(Cond::Ne, t, l, r);
        b.switch_to(l);
        b.jump(j);
        b.switch_to(r);
        b.jump(j);
        b.switch_to(j);
        b.ret(None);
        b.finish()
    }

    #[test]
    fn rpo_starts_at_entry_and_ends_at_exit() {
        let f = diamond();
        let cfg = Cfg::compute(&f);
        assert_eq!(cfg.rpo.len(), 4);
        assert_eq!(cfg.rpo[0], f.entry());
        assert_eq!(*cfg.rpo.last().unwrap(), BlockId(3));
        for b in f.block_ids() {
            assert!(cfg.is_reachable(b));
        }
    }

    #[test]
    fn unreachable_blocks_are_flagged() {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "u", &[]);
        b.ret(None);
        let dead = b.block();
        b.switch_to(dead);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        assert!(cfg.is_reachable(BlockId(0)));
        assert!(!cfg.is_reachable(dead));
        assert_eq!(cfg.rpo.len(), 1);
    }

    #[test]
    fn preds_are_the_transpose_in_block_order() {
        let mut f = Function::new("t");
        let b0 = f.add_block();
        let b1 = f.add_block();
        let b2 = f.add_block();
        let t = f.new_temp(RegClass::Int, None);
        f.block_mut(b0).insts.push(
            Inst::Branch { cond: Cond::Ne, src: Reg::Temp(t), then_tgt: b1, else_tgt: b2 }.into(),
        );
        f.block_mut(b1).insts.push(Inst::Jump { target: b2 }.into());
        f.block_mut(b2).insts.push(Inst::Ret { ret_regs: vec![] }.into());
        let cfg = Cfg::compute(&f);
        assert_eq!(cfg.succs(b0), [b1, b2]);
        assert_eq!(cfg.preds(b2), [b0, b1]);
        assert_eq!(cfg.preds(b0), []);
        assert_eq!(cfg.edges().collect::<Vec<_>>(), [(b0, b1), (b0, b2), (b1, b2)]);
    }

    #[test]
    fn equal_branch_arms_are_one_edge() {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "bb", &[]);
        let t = b.int_temp("t");
        b.movi(t, 0);
        let b1 = b.block();
        b.branch(Cond::Ne, t, b1, b1);
        b.switch_to(b1);
        b.ret(None);
        let cfg = Cfg::compute(&b.finish());
        assert_eq!(cfg.succs(BlockId(0)), [b1]);
        assert_eq!(cfg.preds(b1), [BlockId(0)]);
    }
}
