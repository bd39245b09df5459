//! Dominator tree via the Cooper–Harvey–Kennedy iterative algorithm.

use lsra_ir::{BlockId, Function};

use crate::cfg::Cfg;

/// Immediate-dominator information for a function's CFG.
#[derive(Clone, Debug)]
pub struct Dominators {
    idom: Vec<Option<BlockId>>,
}

impl Dominators {
    /// Computes dominators over `cfg`, built from `f` (unreachable blocks
    /// get no dominator).
    pub fn compute(f: &Function, cfg: &Cfg) -> Self {
        debug_assert_eq!(cfg.num_blocks(), f.num_blocks());
        let mut idom: Vec<Option<BlockId>> = vec![None; cfg.num_blocks()];
        let entry = cfg.entry();
        idom[entry.index()] = Some(entry);

        let intersect = |idom: &[Option<BlockId>], mut a: BlockId, mut b: BlockId| {
            while a != b {
                while cfg.rpo_pos[a.index()] > cfg.rpo_pos[b.index()] {
                    a = idom[a.index()].expect("processed block has idom");
                }
                while cfg.rpo_pos[b.index()] > cfg.rpo_pos[a.index()] {
                    b = idom[b.index()].expect("processed block has idom");
                }
            }
            a
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in cfg.rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in cfg.preds(b) {
                    if !cfg.is_reachable(p) || idom[p.index()].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, cur, p),
                    });
                }
                if new_idom != idom[b.index()] {
                    idom[b.index()] = new_idom;
                    changed = true;
                }
            }
        }
        Dominators { idom }
    }

    /// The immediate dominator of `b` (the entry dominates itself;
    /// unreachable blocks return `None`).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom[b.index()]
    }

    /// True if `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur.index()] {
                Some(d) if d != cur => cur = d,
                _ => return false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsra_ir::{Cond, FunctionBuilder, MachineSpec};

    /// Builds:
    /// ```text
    ///   b0 -> b1 -> b2 -> b4
    ///          \-> b3 --/
    /// ```
    fn cfg() -> Function {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "f", &[]);
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
        b.jump(b4);
        b.switch_to(b3);
        b.jump(b4);
        b.switch_to(b4);
        b.ret(None);
        b.finish()
    }

    #[test]
    fn idoms_of_diamond() {
        let f = cfg();
        let d = Dominators::compute(&f, &Cfg::compute(&f));
        assert_eq!(d.idom(BlockId(0)), Some(BlockId(0)));
        assert_eq!(d.idom(BlockId(1)), Some(BlockId(0)));
        assert_eq!(d.idom(BlockId(2)), Some(BlockId(1)));
        assert_eq!(d.idom(BlockId(3)), Some(BlockId(1)));
        assert_eq!(d.idom(BlockId(4)), Some(BlockId(1)), "join is dominated by the fork");
    }

    #[test]
    fn dominates_is_reflexive_and_transitive() {
        let f = cfg();
        let d = Dominators::compute(&f, &Cfg::compute(&f));
        assert!(d.dominates(BlockId(2), BlockId(2)));
        assert!(d.dominates(BlockId(0), BlockId(4)));
        assert!(d.dominates(BlockId(1), BlockId(4)));
        assert!(!d.dominates(BlockId(2), BlockId(4)));
        assert!(!d.dominates(BlockId(4), BlockId(1)));
    }
}
