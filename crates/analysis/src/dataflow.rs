//! Iterative dataflow solvers.
//!
//! [`solve_backward`] is the gen/kill solver behind liveness, the
//! allocator's `USED_C` consistency problem (§2.4 of the paper), and
//! spill-slot liveness: transfer `in = gen ∪ (out ∖ kill)`, union as the
//! meet. [`solve_must`] is the one optimistic forward fixpoint with an
//! intersection meet, over any state and a fallible block transfer; the
//! symbolic checker and the `Q102` lint run on it, and
//! [`solve_forward_must`] is its gen/kill instance. Each solver
//! visits blocks in an order supplied by the caller and iterates to a fixed
//! point, reporting the iteration count (the paper's §2.6 leans on this
//! being 2–3 in practice).

use lsra_ir::BlockId;

use crate::bitset::BitSet;
use crate::cfg::Cfg;

/// The result of a backward gen/kill solve.
#[derive(Clone, Debug)]
pub struct BackwardSolution {
    /// `in[b] = gen[b] ∪ (out[b] ∖ kill[b])` at the fixed point.
    pub live_in: Vec<BitSet>,
    /// `out[b] = ∪ in[s]` over successors.
    pub live_out: Vec<BitSet>,
    /// Iterations taken to converge.
    pub iterations: u32,
}

/// Solves a backward gen/kill problem over `cfg`.
///
/// Each sweep visits the blocks `order` yields, which should converge
/// quickly for backward problems (reverse of a reverse postorder works
/// well); blocks not listed are still correct but may cost extra
/// iterations if listed orders skip them — pass every block of interest.
pub fn solve_backward(
    cfg: &Cfg,
    universe: usize,
    gen: &[BitSet],
    kill: &[BitSet],
    order: impl Iterator<Item = BlockId> + Clone,
) -> BackwardSolution {
    let nb = cfg.num_blocks();
    debug_assert_eq!(gen.len(), nb);
    debug_assert_eq!(kill.len(), nb);
    let mut live_in = vec![BitSet::new(universe); nb];
    let mut live_out = vec![BitSet::new(universe); nb];
    let mut iterations = 0;
    let mut changed = true;
    while changed {
        changed = false;
        iterations += 1;
        for b in order.clone() {
            let bi = b.index();
            let mut out = std::mem::replace(&mut live_out[bi], BitSet::new(0));
            out.clear();
            for s in cfg.succs(b) {
                out.union_with(&live_in[s.index()]);
            }
            let c = live_in[bi].assign_transfer(&gen[bi], &out, &kill[bi]);
            live_out[bi] = out;
            changed |= c;
        }
    }
    BackwardSolution { live_in, live_out, iterations }
}

/// A forward dataflow state whose meet is intersection.
pub trait MustState: Clone + PartialEq {
    /// `self ← self ∩ other`.
    fn meet_with(&mut self, other: &Self);
}

impl MustState for BitSet {
    fn meet_with(&mut self, other: &Self) {
        self.intersect_with(other);
    }
}

/// A state per location (register or slot), met location by location.
impl<S: MustState> MustState for Vec<S> {
    fn meet_with(&mut self, other: &Self) {
        for (x, y) in self.iter_mut().zip(other) {
            x.meet_with(y);
        }
    }
}

/// The fixed point of a forward must problem.
#[derive(Clone, Debug)]
pub struct MustSolution<S> {
    /// The state on entry to each visited block (`None` for the rest).
    pub ins: Vec<Option<S>>,
    /// The state on exit from each visited block (`None` for the rest).
    pub outs: Vec<Option<S>>,
    /// Passes over `visit` taken to converge.
    pub iterations: u32,
}

/// Solves a forward *must* (all-paths) problem: a fact holds at a block
/// entry only if it holds along **every** path from the entry block.
///
/// The solver is optimistic. It sweeps `visit` (the reachable blocks, in
/// the caller's order) until no exit state changes, computing each block's
/// entry state as the meet of its predecessors' exit states. A predecessor
/// not computed yet (or not in `visit`) counts as ⊤ and drops out of the
/// meet; a block with no computed predecessor starts from `top`. The entry
/// block is pinned to `entry`. `transfer` turns a block's entry state into
/// its exit state in place, and its first error ends the solve, so errors
/// surface in `visit` order on the first sweep.
///
/// # Errors
///
/// Returns the first error `transfer` returns.
pub fn solve_must<S: MustState, E>(
    cfg: &Cfg,
    visit: &[BlockId],
    entry: &S,
    top: &S,
    mut transfer: impl FnMut(BlockId, &mut S) -> Result<(), E>,
) -> Result<MustSolution<S>, E> {
    let nb = cfg.num_blocks();
    let mut ins: Vec<Option<S>> = vec![None; nb];
    let mut outs: Vec<Option<S>> = vec![None; nb];
    let mut iterations = 0;
    loop {
        iterations += 1;
        let mut changed = false;
        for &b in visit {
            let inb = if b == cfg.entry() {
                entry.clone()
            } else {
                let mut acc: Option<S> = None;
                for p in cfg.preds(b) {
                    if let Some(out) = &outs[p.index()] {
                        match &mut acc {
                            Some(a) => a.meet_with(out),
                            None => acc = Some(out.clone()),
                        }
                    }
                }
                acc.unwrap_or_else(|| top.clone())
            };
            let mut out = inb.clone();
            transfer(b, &mut out)?;
            if outs[b.index()].as_ref() != Some(&out) {
                outs[b.index()] = Some(out);
                changed = true;
            }
            ins[b.index()] = Some(inb);
        }
        if !changed {
            return Ok(MustSolution { ins, outs, iterations });
        }
    }
}

/// The result of a forward *must* (all-paths) gen/kill solve.
#[derive(Clone, Debug)]
pub struct ForwardMustSolution {
    /// `in[b] = ∩ out[p]` over reachable predecessors at the fixed point
    /// (`entry_in` for the entry block). Unreachable blocks keep an empty
    /// set — callers should consult [`Cfg::is_reachable`].
    pub must_in: Vec<BitSet>,
    /// Iterations taken to converge.
    pub iterations: u32,
}

/// Solves a forward gen/kill problem with *intersection* as the meet
/// ([`solve_must`] over `cfg.rpo`): here it backs must-be-defined
/// analyses (use-before-def).
pub fn solve_forward_must(
    cfg: &Cfg,
    universe: usize,
    gen: &[BitSet],
    kill: &[BitSet],
    entry_in: &BitSet,
) -> ForwardMustSolution {
    debug_assert_eq!(gen.len(), cfg.num_blocks());
    debug_assert_eq!(kill.len(), cfg.num_blocks());
    let mut top = BitSet::new(universe);
    top.fill();
    let sol = solve_must(cfg, &cfg.rpo, entry_in, &top, |b, s| {
        s.difference_with(&kill[b.index()]);
        s.union_with(&gen[b.index()]);
        Ok::<(), std::convert::Infallible>(())
    });
    let Ok(MustSolution { ins, iterations, .. }) = sol;
    let must_in = ins.into_iter().map(|s| s.unwrap_or_else(|| BitSet::new(universe))).collect();
    ForwardMustSolution { must_in, iterations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsra_ir::{Cond, FunctionBuilder, MachineSpec};

    /// A two-block loop: gen in the body propagates around the back edge.
    #[test]
    fn backward_solve_loop() {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "l", &[]);
        let t = b.int_temp("t");
        b.movi(t, 3);
        let head = b.block();
        let exit = b.block();
        b.jump(head);
        b.switch_to(head);
        b.branch(Cond::Gt, t, head, exit);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();

        let universe = 2;
        let mut gen = vec![BitSet::new(universe); f.num_blocks()];
        let kill = vec![BitSet::new(universe); f.num_blocks()];
        gen[1].insert(0); // "bit 0 used in the loop head"
        let cfg = Cfg::compute(&f);
        let rev = cfg.rpo.iter().rev().copied();
        let sol = solve_backward(&cfg, universe, &gen, &kill, rev);
        assert!(sol.live_in[1].contains(0));
        assert!(sol.live_out[0].contains(0), "propagates to the entry's out");
        assert!(sol.live_out[1].contains(0), "propagates around the back edge");
        assert!(!sol.live_in[2].contains(0));
        assert!(sol.iterations <= 3);
    }

    /// Diamond: a def on only one arm must NOT reach the join (must-meet),
    /// while a def before the branch must.
    #[test]
    fn forward_must_meets_with_intersection() {
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
        let f = b.finish();

        let universe = 2;
        let mut gen = vec![BitSet::new(universe); f.num_blocks()];
        let kill = vec![BitSet::new(universe); f.num_blocks()];
        gen[0].insert(0); // defined before the branch
        gen[1].insert(1); // defined on the left arm only
        let cfg = Cfg::compute(&f);
        let sol = solve_forward_must(&cfg, universe, &gen, &kill, &BitSet::new(universe));
        assert!(sol.must_in[3].contains(0), "all-paths def reaches the join");
        assert!(!sol.must_in[3].contains(1), "one-arm def does not");
        assert!(sol.must_in[1].contains(0) && sol.must_in[2].contains(0));
        assert!(sol.iterations <= 3);
    }

    /// A loop back edge must not destroy facts established before the loop,
    /// and the entry's in-set is exactly `entry_in`.
    #[test]
    fn forward_must_handles_back_edges() {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "l", &[]);
        let t = b.int_temp("t");
        b.movi(t, 3);
        let head = b.block();
        let exit = b.block();
        b.jump(head);
        b.switch_to(head);
        b.branch(Cond::Gt, t, head, exit);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();

        let universe = 2;
        let mut gen = vec![BitSet::new(universe); f.num_blocks()];
        let kill = vec![BitSet::new(universe); f.num_blocks()];
        gen[0].insert(0);
        let mut entry_in = BitSet::new(universe);
        entry_in.insert(1);
        let cfg = Cfg::compute(&f);
        let sol = solve_forward_must(&cfg, universe, &gen, &kill, &entry_in);
        assert_eq!(sol.must_in[0], entry_in);
        assert!(sol.must_in[1].contains(0), "survives the back-edge meet");
        assert!(sol.must_in[1].contains(1), "entry facts flow through");
        assert!(sol.must_in[2].contains(0));
    }

    #[test]
    fn kill_stops_propagation() {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "k", &[]);
        let b1 = b.block();
        let b2 = b.block();
        b.jump(b1);
        b.switch_to(b1);
        b.jump(b2);
        b.switch_to(b2);
        b.ret(None);
        let f = b.finish();

        let universe = 1;
        let mut gen = vec![BitSet::new(universe); 3];
        let mut kill = vec![BitSet::new(universe); 3];
        gen[2].insert(0);
        kill[1].insert(0); // b1 kills it
        let cfg = Cfg::compute(&f);
        let rev = cfg.rpo.iter().rev().copied();
        let sol = solve_backward(&cfg, universe, &gen, &kill, rev);
        assert!(sol.live_in[2].contains(0));
        assert!(sol.live_out[1].contains(0));
        assert!(!sol.live_in[1].contains(0), "killed in b1");
        assert!(!sol.live_out[0].contains(0));
    }
}
