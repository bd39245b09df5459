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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_id_display() {
        assert_eq!(BlockId(5).to_string(), "b5");
    }
}
