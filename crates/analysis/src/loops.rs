//! Natural-loop detection and loop depth.
//!
//! Both allocators in the paper weight occurrence counts by loop depth
//! (§3: "Loop depth is used in the same way to weight occurrence counts in
//! both allocators"); the binpacking eviction heuristic weights the distance
//! to the next reference by it (§2.3).

use lsra_ir::{BlockId, Function};

use crate::cfg::Cfg;
use crate::collections::EpochSet;
use crate::dominators::Dominators;

/// Loop-nesting information: the nesting depth of every block (0 = not in
/// any loop).
#[derive(Clone, Debug)]
pub struct LoopInfo {
    depth: Vec<u32>,
}

impl LoopInfo {
    /// Finds natural loops (back edges `t -> h` where `h` dominates `t`) and
    /// accumulates nesting depth per block. Each back edge counts as its
    /// own loop, so a header with two latches nests its body twice.
    ///
    /// A dominator precedes every block it dominates in reverse postorder,
    /// so only retreating edges (`rpo_pos[h] <= rpo_pos[t]`) can be back
    /// edges, and only they pay for the dominance walk. Each natural loop
    /// costs its own size: the body is marked in one [`EpochSet`].
    pub fn compute(f: &Function, cfg: &Cfg, doms: &Dominators) -> Self {
        debug_assert_eq!(cfg.num_blocks(), f.num_blocks());
        let mut depth = vec![0u32; cfg.num_blocks()];
        let mut in_loop = EpochSet::new(cfg.num_blocks());
        let mut stack = Vec::new();
        for (b, h) in cfg.edges() {
            if !cfg.is_reachable(b)
                || cfg.rpo_pos[h.index()] > cfg.rpo_pos[b.index()]
                || !doms.dominates(h, b)
            {
                continue;
            }
            // Natural loop of back edge b -> h: h plus all blocks that
            // reach b without passing through h.
            in_loop.advance();
            in_loop.insert(h.index());
            stack.push(b);
            while let Some(x) = stack.pop() {
                if in_loop.insert(x.index()) {
                    stack.extend(cfg.preds(x).iter().filter(|p| !in_loop.contains(p.index())));
                }
            }
            for &i in in_loop.touched() {
                depth[i as usize] += 1;
            }
        }
        LoopInfo { depth }
    }

    /// Nesting depth of `b` (0 outside all loops).
    #[inline]
    pub fn depth(&self, b: BlockId) -> u32 {
        self.depth[b.index()]
    }

    /// The paper-style frequency weight for a block: `10^depth`, capped to
    /// avoid overflow in cost sums.
    pub fn weight(&self, b: BlockId) -> f64 {
        depth_weight(self.depth(b))
    }
}

/// `10^depth`, with the depth capped at 8: the weight of a block at loop
/// depth `depth` ([`LoopInfo::weight`]).
#[inline]
pub(crate) fn depth_weight(depth: u32) -> f64 {
    const WEIGHTS: [f64; 9] = [1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8];
    WEIGHTS[depth.min(8) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsra_ir::{Cond, FunctionBuilder, MachineSpec};

    #[test]
    fn depth_weights_are_capped_powers_of_ten() {
        for d in 0..20 {
            assert_eq!(depth_weight(d), 10f64.powi(d.min(8) as i32), "depth {d}");
        }
    }

    fn loops(f: &Function) -> LoopInfo {
        let cfg = Cfg::compute(f);
        LoopInfo::compute(f, &cfg, &Dominators::compute(f, &cfg))
    }

    /// Two nested loops:
    /// ```text
    /// b0 -> b1(outer head) -> b2(inner head) -> b2 ... -> b3 -> b1 ... -> b4
    /// ```
    fn nested() -> Function {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "n", &[]);
        let t = b.int_temp("t");
        b.movi(t, 1);
        let b1 = b.block();
        let b2 = b.block();
        let b3 = b.block();
        let b4 = b.block();
        b.jump(b1);
        b.switch_to(b1);
        b.jump(b2);
        b.switch_to(b2);
        b.branch(Cond::Ne, t, b2, b3); // inner self-loop
        b.switch_to(b3);
        b.branch(Cond::Ne, t, b1, b4); // outer back edge
        b.switch_to(b4);
        b.ret(None);
        b.finish()
    }

    #[test]
    fn nested_loop_depths() {
        let f = nested();
        let li = loops(&f);
        assert_eq!(li.depth(BlockId(0)), 0);
        assert_eq!(li.depth(BlockId(1)), 1);
        assert_eq!(li.depth(BlockId(2)), 2, "inner head is in both loops");
        assert_eq!(li.depth(BlockId(3)), 1);
        assert_eq!(li.depth(BlockId(4)), 0);
    }

    #[test]
    fn weights_scale_by_ten() {
        let f = nested();
        let li = loops(&f);
        assert_eq!(li.weight(BlockId(0)), 1.0);
        assert_eq!(li.weight(BlockId(2)), 100.0);
    }

    /// Pins today's semantics: each back edge is its own natural loop, so
    /// a header with two latches (`b2 -> b1`, `b3 -> b1`) sits at depth 2
    /// although the CFG has one loop. A loop forest would merge the two
    /// latches and put every block of the loop at depth 1; ROADMAP's
    /// "merge the latches of each header" item tracks that change.
    #[test]
    fn a_header_with_two_latches_counts_two_loops() {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "latches", &[]);
        let t = b.int_temp("t");
        b.movi(t, 1);
        let b1 = b.block();
        let b2 = b.block();
        let b3 = b.block();
        let b4 = b.block();
        b.jump(b1);
        b.switch_to(b1);
        b.branch(Cond::Ne, t, b2, b3);
        b.switch_to(b2);
        b.jump(b1); // first latch
        b.switch_to(b3);
        b.branch(Cond::Ne, t, b1, b4); // second latch
        b.switch_to(b4);
        b.ret(None);
        let f = b.finish();
        let li = loops(&f);
        let depths: Vec<u32> = f.block_ids().map(|b| li.depth(b)).collect();
        assert_eq!(depths, [0, 2, 1, 1, 0]);
        assert_eq!(li.weight(b1), 100.0);
    }

    #[test]
    fn straight_line_has_no_loops() {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "s", &[]);
        b.ret(None);
        let f = b.finish();
        let li = loops(&f);
        assert_eq!(li.depth(BlockId(0)), 0);
    }
}
