//! CFG edge utilities: edge splitting and the critical-edge test.
//!
//! The resolution phase of the binpacking allocator (§2.4) places fix-up
//! code at the top of a block with a unique predecessor, at the bottom of a
//! block with a unique successor, and otherwise *splits the critical edge*,
//! "safely creating a location to place the resolution code".

use lsra_ir::{BlockId, Function, Inst};

use crate::cfg::Cfg;

/// Splits the edge `pred -> succ` by inserting a fresh block containing only
/// a jump to `succ`, and retargeting every occurrence of `succ` in `pred`'s
/// terminator to it. Returns the new block (appended at the end of the
/// linear order).
pub fn split_edge(f: &mut Function, pred: BlockId, succ: BlockId) -> BlockId {
    let new = f.add_block();
    f.block_mut(new).insts.push(Inst::Jump { target: succ }.into());
    let term = &mut f.block_mut(pred).insts.last_mut().expect("block has terminator").inst;
    if let Inst::Jump { target: t } | Inst::Branch { then_tgt: t, .. } = term {
        if *t == succ {
            *t = new;
        }
    }
    if let Inst::Branch { else_tgt, .. } = term {
        if *else_tgt == succ {
            *else_tgt = new;
        }
    }
    new
}

/// True if `pred -> succ` is a critical edge (multi-successor predecessor
/// into a multi-predecessor successor).
pub fn is_critical(cfg: &Cfg, pred: BlockId, succ: BlockId) -> bool {
    cfg.succs(pred).len() > 1 && cfg.preds(succ).len() > 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsra_ir::{Cond, FunctionBuilder, MachineSpec};

    /// b0 branches to b1/b2; b1 jumps to b2 — so b0->b2 is critical.
    fn with_critical_edge() -> Function {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "ce", &[]);
        let t = b.int_temp("t");
        b.movi(t, 1);
        let b1 = b.block();
        let b2 = b.block();
        b.branch(Cond::Ne, t, b1, b2);
        b.switch_to(b1);
        b.jump(b2);
        b.switch_to(b2);
        b.ret(None);
        b.finish()
    }

    #[test]
    fn detects_critical_edge() {
        let f = with_critical_edge();
        let cfg = Cfg::compute(&f);
        assert!(is_critical(&cfg, BlockId(0), BlockId(2)));
        assert!(!is_critical(&cfg, BlockId(0), BlockId(1)));
        assert!(!is_critical(&cfg, BlockId(1), BlockId(2)));
    }

    #[test]
    fn split_preserves_cfg_semantics() {
        let mut f = with_critical_edge();
        let new = split_edge(&mut f, BlockId(0), BlockId(2));
        assert!(f.validate().is_ok());
        let cfg = Cfg::compute(&f);
        assert_eq!(cfg.succs(new), [BlockId(2)]);
        assert_eq!(cfg.succs(BlockId(0)), [BlockId(1), new]);
        assert!(!is_critical(&cfg, BlockId(0), new));
    }

    #[test]
    fn branch_with_both_targets_equal_retargets_both() {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "bb", &[]);
        let t = b.int_temp("t");
        b.movi(t, 0);
        let b1 = b.block();
        b.branch(Cond::Ne, t, b1, b1);
        b.switch_to(b1);
        b.ret(None);
        let mut f = b.finish();
        let new = split_edge(&mut f, BlockId(0), b1);
        assert_eq!(Cfg::compute(&f).succs(BlockId(0)), [new]);
    }
}
