//! Basic blocks.

use crate::inst::{Ins, Inst};

/// Identifies a basic block within a function.
///
/// Block ids index into [`crate::Function::blocks`]; the order of that vector
/// is the *linear order* the paper's allocator scans (Figure 1b).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BlockId(pub u32);

impl BlockId {
    /// Dense index of this block within its function.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// A basic block: a straight-line instruction sequence ending in exactly one
/// terminator.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Block {
    /// The block's instructions, terminator last.
    pub insts: Vec<Ins>,
}

impl Block {
    /// Creates an empty block.
    pub fn new() -> Self {
        Block::default()
    }

    /// The block's terminator.
    ///
    /// # Panics
    ///
    /// Panics if the block is empty or does not end with a terminator (which
    /// only happens for a function still under construction).
    pub fn terminator(&self) -> &Inst {
        let last = &self.insts.last().expect("empty block has no terminator").inst;
        assert!(last.is_terminator(), "block does not end in a terminator: {last:?}");
        last
    }

    /// True if the block ends with a well-formed terminator and contains no
    /// interior terminators.
    pub fn is_well_formed(&self) -> bool {
        match self.insts.split_last() {
            Some((last, body)) => {
                last.inst.is_terminator() && body.iter().all(|i| !i.inst.is_terminator())
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Inst;

    #[test]
    fn well_formedness() {
        let mut b = Block::new();
        assert!(!b.is_well_formed());
        b.insts.push(Inst::Jump { target: BlockId(1) }.into());
        assert!(b.is_well_formed());
        b.insts.push(Inst::Ret { ret_regs: vec![] }.into());
        assert!(!b.is_well_formed(), "interior terminator must be rejected");
    }

    #[test]
    fn block_id_display() {
        assert_eq!(BlockId(5).to_string(), "b5");
    }
}
