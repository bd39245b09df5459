//! Delta-debugging minimization of failing modules.
//!
//! Given a module and an oracle ("does this module still exhibit the
//! failure?"), [`shrink_module`] greedily applies structure-preserving
//! reductions — dropping whole helper functions, collapsing conditional
//! branches to jumps, removing the blocks that become unreachable, and
//! chunked deletion of straight-line instructions — re-running the oracle
//! after every candidate edit and keeping only edits that preserve the
//! failure. Every intermediate candidate passes [`Module::validate`], so
//! the oracle never sees structurally broken input, and the final module is
//! a well-formed minimal repro that can be printed as `.lsra` text
//! (`format!("{module}")`) and re-read with `lsra_ir::parse_module`.

use lsra_analysis::Cfg;
use lsra_ir::{BlockId, Callee, FuncId, Inst, Module};

/// Bookkeeping from one [`shrink_module`] run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShrinkStats {
    /// Oracle invocations (each typically allocates and runs the module).
    pub oracle_calls: usize,
    /// Full passes over the strategy list.
    pub rounds: usize,
    /// Instruction count of the input module.
    pub insts_before: usize,
    /// Instruction count of the shrunk module.
    pub insts_after: usize,
}

struct Shrinker<'a> {
    cur: Module,
    oracle: &'a mut dyn FnMut(&Module) -> bool,
    stats: ShrinkStats,
}

impl Shrinker<'_> {
    /// Adopts `cand` if it is well-formed and still fails.
    fn accept(&mut self, cand: Module) -> bool {
        if cand.validate().is_err() {
            return false;
        }
        self.stats.oracle_calls += 1;
        if (self.oracle)(&cand) {
            self.cur = cand;
            true
        } else {
            false
        }
    }

    /// Tries to delete non-entry functions outright (remapping the call
    /// graph); functions that are still called are skipped.
    fn drop_functions(&mut self) -> bool {
        let mut progressed = false;
        let mut idx = self.cur.funcs.len();
        while idx > 0 {
            idx -= 1;
            if idx == self.cur.entry.index() || self.cur.funcs.len() <= 1 {
                continue;
            }
            let removed = FuncId(idx as u32);
            let mut called = false;
            for f in &self.cur.funcs {
                for b in &f.blocks {
                    for ins in &b.insts {
                        if matches!(&ins.inst, Inst::Call { callee: Callee::Func(id), .. } if *id == removed)
                        {
                            called = true;
                        }
                    }
                }
            }
            if called {
                continue;
            }
            let mut cand = self.cur.clone();
            cand.funcs.remove(idx);
            if cand.entry.index() > idx {
                cand.entry = FuncId(cand.entry.0 - 1);
            }
            for f in &mut cand.funcs {
                for b in &mut f.blocks {
                    for ins in &mut b.insts {
                        if let Inst::Call { callee: Callee::Func(id), .. } = &mut ins.inst {
                            if id.index() > idx {
                                *id = FuncId(id.0 - 1);
                            }
                        }
                    }
                }
            }
            progressed |= self.accept(cand);
        }
        progressed
    }

    /// Tries to replace each block's terminator with a bare `ret`,
    /// truncating everything the block used to lead to.
    fn truncate_to_ret(&mut self) -> bool {
        let mut progressed = false;
        for fi in 0..self.cur.funcs.len() {
            for bi in 0..self.cur.funcs[fi].blocks.len() {
                let Some(ins) = self.cur.funcs[fi].blocks[bi].insts.last() else { continue };
                if matches!(ins.inst, Inst::Ret { .. }) {
                    continue;
                }
                let mut cand = self.cur.clone();
                let last = cand.funcs[fi].blocks[bi].insts.last_mut().unwrap();
                last.inst = Inst::Ret { ret_regs: vec![] };
                progressed |= self.accept(cand);
            }
        }
        progressed
    }

    /// Tries to collapse each conditional branch to an unconditional jump
    /// (either arm), pruning control flow.
    fn simplify_branches(&mut self) -> bool {
        let mut progressed = false;
        for fi in 0..self.cur.funcs.len() {
            for bi in 0..self.cur.funcs[fi].blocks.len() {
                let Some(ins) = self.cur.funcs[fi].blocks[bi].insts.last() else { continue };
                let Inst::Branch { then_tgt, else_tgt, .. } = ins.inst else { continue };
                for tgt in [else_tgt, then_tgt] {
                    let mut cand = self.cur.clone();
                    let last = cand.funcs[fi].blocks[bi].insts.last_mut().unwrap();
                    last.inst = Inst::Jump { target: tgt };
                    if self.accept(cand) {
                        progressed = true;
                        break;
                    }
                }
            }
        }
        progressed
    }

    /// Drops unreachable blocks (remapping block ids). Execution never sees
    /// them, but allocators and checkers still walk them, so this both
    /// shrinks the repro text and narrows the fault surface.
    fn drop_unreachable_blocks(&mut self) -> bool {
        let mut progressed = false;
        for fi in 0..self.cur.funcs.len() {
            let f = &self.cur.funcs[fi];
            let cfg = Cfg::compute(f);
            if f.block_ids().all(|b| cfg.is_reachable(b)) {
                continue;
            }
            let mut remap = vec![None; f.num_blocks()];
            let mut next = 0u32;
            for b in f.block_ids() {
                if cfg.is_reachable(b) {
                    remap[b.index()] = Some(BlockId(next));
                    next += 1;
                }
            }
            let mut cand = self.cur.clone();
            let cf = &mut cand.funcs[fi];
            let blocks = std::mem::take(&mut cf.blocks);
            cf.blocks = blocks
                .into_iter()
                .enumerate()
                .filter(|(i, _)| remap[*i].is_some())
                .map(|(_, b)| b)
                .collect();
            for b in &mut cf.blocks {
                if let Some(ins) = b.insts.last_mut() {
                    match &mut ins.inst {
                        Inst::Jump { target } => *target = remap[target.index()].unwrap(),
                        Inst::Branch { then_tgt, else_tgt, .. } => {
                            *then_tgt = remap[then_tgt.index()].unwrap();
                            *else_tgt = remap[else_tgt.index()].unwrap();
                        }
                        _ => {}
                    }
                }
            }
            progressed |= self.accept(cand);
        }
        progressed
    }

    /// Chunked deletion of non-terminator instructions (ddmin-style: big
    /// chunks first, halving on failure).
    fn drop_instructions(&mut self) -> bool {
        let mut progressed = false;
        for fi in 0..self.cur.funcs.len() {
            for bi in 0..self.cur.funcs[fi].blocks.len() {
                let body = self.cur.funcs[fi].blocks[bi].insts.len().saturating_sub(1);
                if body == 0 {
                    continue;
                }
                let mut chunk = body;
                while chunk >= 1 {
                    let mut i = 0;
                    loop {
                        let body = self.cur.funcs[fi].blocks[bi].insts.len().saturating_sub(1);
                        if i >= body {
                            break;
                        }
                        let end = (i + chunk).min(body);
                        let mut cand = self.cur.clone();
                        cand.funcs[fi].blocks[bi].insts.drain(i..end);
                        if self.accept(cand) {
                            progressed = true;
                            // Deleted; the next chunk now starts at `i`.
                        } else {
                            i = end;
                        }
                    }
                    if chunk == 1 {
                        break;
                    }
                    chunk /= 2;
                }
            }
        }
        progressed
    }
}

/// Minimizes `seed` while `still_failing` keeps returning `true`.
///
/// `still_failing` is the failure oracle: it must return `true` for any
/// module that exhibits the bug being chased (the caller is responsible for
/// making it deterministic and for guarding against unrelated breakage,
/// e.g. by rejecting modules whose *reference* execution faults). The seed
/// module itself is assumed to fail; if it does not, the seed is returned
/// unchanged.
///
/// Returns the minimized module together with [`ShrinkStats`].
pub fn shrink_module(
    seed: &Module,
    still_failing: &mut dyn FnMut(&Module) -> bool,
) -> (Module, ShrinkStats) {
    let mut sh = Shrinker {
        cur: seed.clone(),
        oracle: still_failing,
        stats: ShrinkStats { insts_before: seed.num_insts(), ..ShrinkStats::default() },
    };
    loop {
        sh.stats.rounds += 1;
        let mut progressed = false;
        progressed |= sh.drop_functions();
        progressed |= sh.truncate_to_ret();
        progressed |= sh.simplify_branches();
        progressed |= sh.drop_unreachable_blocks();
        progressed |= sh.drop_instructions();
        if !progressed || sh.stats.rounds >= 64 {
            break;
        }
    }
    sh.stats.insts_after = sh.cur.num_insts();
    let Shrinker { cur, stats, .. } = sh;
    (cur, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsra_ir::MachineSpec;
    use lsra_workloads::random::{RandomConfig, RandomProgram};

    #[test]
    fn shrinks_marker_to_a_handful_of_instructions() {
        // Synthetic failure: "the module still contains a `movi _, 424242`".
        // The shrinker should strip a whole random program down to little
        // more than that instruction and the entry block's terminator.
        let spec = MachineSpec::alpha_like();
        let cfg = RandomConfig { helpers: 0, ..RandomConfig::default() };
        let mut m = RandomProgram::new(7, cfg).build(&spec);
        let marker = Inst::MovI {
            dst: lsra_ir::Reg::Temp(m.funcs[0].new_temp(lsra_ir::RegClass::Int, None)),
            imm: 424_242,
        };
        m.funcs[0].blocks[0].insts.insert(0, marker.into());
        m.validate().unwrap();

        let mut oracle = |c: &Module| {
            c.funcs.iter().any(|f| {
                f.blocks.iter().any(|b| {
                    b.insts.iter().any(|i| matches!(i.inst, Inst::MovI { imm: 424_242, .. }))
                })
            })
        };
        assert!(oracle(&m));
        let (small, stats) = shrink_module(&m, &mut oracle);
        assert!(oracle(&small));
        small.validate().unwrap();
        assert!(
            small.num_insts() <= 6,
            "expected <= 6 instructions, got {} ({} oracle calls)",
            small.num_insts(),
            stats.oracle_calls
        );
        assert!(stats.insts_after < stats.insts_before);
        // The repro round-trips through the text format.
        let text = format!("{small}");
        let reparsed = lsra_ir::parse_module(&text).expect("repro must re-parse");
        assert_eq!(reparsed.num_insts(), small.num_insts());
    }

    #[test]
    fn returns_seed_when_oracle_rejects_everything_smaller() {
        let spec = MachineSpec::alpha_like();
        let m = RandomProgram::new(3, RandomConfig::default()).build(&spec);
        let total = m.num_insts();
        // Oracle: only the exact seed fails.
        let mut oracle = move |c: &Module| c.num_insts() == total;
        let (same, _) = shrink_module(&m, &mut oracle);
        assert_eq!(same.num_insts(), total);
    }
}
