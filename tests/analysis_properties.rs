//! Property tests over the analysis layer: lifetime/hole invariants, the
//! `Cfg` with its dominators and loop depths, and parallel-move sequencing
//! on random inputs.
//!
//! Cases are driven by the repo's own seeded [`Lcg`] generator (no external
//! property-testing dependency); failures report the seed that reproduces
//! them.

use second_chance_regalloc::analysis::{Cfg, Dominators, Lifetimes, Liveness, LoopInfo, Point};
use second_chance_regalloc::binpack::{sequentialize, EdgeOp};
use second_chance_regalloc::ir::{BlockId, Inst};
use second_chance_regalloc::prelude::*;
use second_chance_regalloc::workloads::random::{RandomConfig, RandomProgram};
use second_chance_regalloc::workloads::Lcg;

const CASES: u64 = 64;

/// Lifetime segments are sorted, disjoint, and cover every reference;
/// refs are sorted; lifetime = hull of segments.
#[test]
fn lifetime_invariants() {
    let mut rng = Lcg::new(0x11FE);
    for _ in 0..CASES {
        let seed = rng.below(1_000_000);
        let spec = MachineSpec::alpha_like();
        let module = RandomProgram::new(seed, RandomConfig::default()).build(&spec);
        for f in &module.funcs {
            let lt = Lifetimes::of(f, &spec);
            for t in 0..f.num_temps() as u32 {
                let t = Temp(t);
                let segs = lt.segments(t);
                for w in segs.windows(2) {
                    assert!(
                        w[0].end < w[1].start,
                        "seed {seed}: {t}: segments overlap or touch: {segs:?}"
                    );
                }
                for s in segs {
                    assert!(s.start <= s.end, "seed {seed}: {t}: inverted segment");
                }
                let refs = lt.refs(t);
                for w in refs.windows(2) {
                    assert!(w[0].point <= w[1].point, "seed {seed}: {t}: refs unsorted");
                }
                // Every reference lies inside the lifetime hull.
                if let Some(hull) = lt.lifetime(t) {
                    for r in refs {
                        assert!(
                            hull.start <= r.point && r.point <= hull.end,
                            "seed {seed}: {t}: ref {:?} outside hull {hull:?}",
                            r.point
                        );
                    }
                    // Every use (not def) lies inside some segment.
                    for r in refs.iter().filter(|r| !r.is_def) {
                        assert!(
                            segs.iter().any(|s| s.contains(r.point)),
                            "seed {seed}: {t}: use at {:?} not covered by segments {segs:?}",
                            r.point
                        );
                    }
                } else {
                    assert!(refs.is_empty(), "seed {seed}: {t}: refs without lifetime");
                }
            }
        }
    }
}

/// The reference rows, filled in place by the reverse pass, against a
/// forward walk: each row ascends by point, holds one entry per operand (a
/// repeated source counted twice), is a definition exactly at write slots,
/// and weighs each reference as `LoopInfo::weight` weighs its block.
#[test]
fn reference_rows_match_a_forward_walk() {
    let mut rng = Lcg::new(0x2EF5);
    let (mut repeated, mut in_loops) = (0, 0);
    for _ in 0..CASES {
        let seed = rng.below(1_000_000);
        let spec = MachineSpec::alpha_like();
        let module = RandomProgram::new(seed, RandomConfig::default()).build(&spec);
        for f in &module.funcs {
            let lt = Lifetimes::of(f, &spec);
            let loops = loop_info(f, &Cfg::compute(f));
            // Per temporary: (point, is_def, weight) in program order.
            let mut want = vec![Vec::new(); f.num_temps()];
            for b in f.block_ids() {
                let w = loops.weight(b);
                for (k, ins) in f.block(b).insts.iter().enumerate() {
                    let gi = lt.first_inst(b) + k as u32;
                    let mut temps = Vec::new();
                    ins.inst.for_each_use(|r| {
                        if let Some(t) = r.as_temp() {
                            want[t.index()].push((Point::read(gi), false, w));
                            temps.push(t);
                        }
                    });
                    temps.sort_unstable();
                    repeated += usize::from(temps.windows(2).any(|p| p[0] == p[1]));
                    ins.inst.for_each_def(|r| {
                        if let Some(t) = r.as_temp() {
                            want[t.index()].push((Point::write(gi), true, w));
                        }
                    });
                }
            }
            for (t, want) in want.iter().enumerate() {
                let refs = lt.refs(Temp(t as u32));
                assert_eq!(refs.len(), want.len(), "seed {seed}: t{t}: one entry per operand");
                for w in refs.windows(2) {
                    assert!(w[0].point <= w[1].point, "seed {seed}: t{t}: refs unsorted");
                }
                for (r, &(point, is_def, weight)) in refs.iter().zip(want) {
                    assert_eq!((r.point, r.is_def), (point, is_def), "seed {seed}: t{t}");
                    assert_eq!(
                        r.is_def,
                        r.point.0 % 4 == 2,
                        "seed {seed}: t{t}: def off a write slot"
                    );
                    assert_eq!(r.weight(), weight, "seed {seed}: t{t} at {point}");
                    in_loops += usize::from(weight > 1.0);
                }
            }
        }
    }
    assert!(repeated > 0 && in_loops > 0, "repeated sources {repeated}, loop refs {in_loops}");
}

/// Live-in at a block implies a live segment covering the block's top
/// boundary.
#[test]
fn liveness_agrees_with_segments() {
    let mut rng = Lcg::new(0x11F3);
    for _ in 0..CASES {
        let seed = rng.below(1_000_000);
        let spec = MachineSpec::alpha_like();
        let module = RandomProgram::new(seed, RandomConfig::default()).build(&spec);
        for f in &module.funcs {
            let live = Liveness::compute(f);
            let lt = Lifetimes::of(f, &spec);
            for b in f.block_ids() {
                let top = lt.top(b);
                for t in live.live_in_temps(b) {
                    assert!(
                        lt.live_at(t, top),
                        "seed {seed}: {t} live-in at {b} but no segment covers {top}"
                    );
                }
            }
        }
    }
}

/// Parallel-move sequencing computes the parallel semantics for random
/// permutations mixed with loads and stores.
#[test]
fn parallel_moves_match_parallel_semantics() {
    let mut rng = Lcg::new(0xC0B1);
    for case in 0..CASES {
        // A random subset of registers 0..10 as move sources, shuffled to
        // form the destinations (so moves form permutations with cycles,
        // chains, and fixed points), plus a few loads and stores.
        let mut srcs: Vec<u8> = (0u8..10).filter(|_| rng.below(2) == 0).collect();
        // Deterministic shuffle of a copy for the destinations.
        let mut dsts = srcs.clone();
        for i in (1..dsts.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            dsts.swap(i, j);
        }
        // Occasionally rotate sources too so src != dst sets differ.
        if rng.below(3) == 0 && !srcs.is_empty() {
            srcs.rotate_left(1);
        }
        let loads = rng.below(3) as usize;
        let stores = rng.below(3) as usize;

        let mut ops: Vec<EdgeOp> = srcs
            .iter()
            .zip(&dsts)
            .enumerate()
            .map(|(i, (&s, &d))| EdgeOp::Move {
                temp: Temp(i as u32),
                src: PhysReg::int(s),
                dst: PhysReg::int(d),
            })
            .collect();
        for k in 0..loads {
            // Load into a register not used as a move destination.
            let dst = 10 + k as u8;
            ops.push(EdgeOp::Load { temp: Temp(100 + k as u32), dst: PhysReg::int(dst) });
        }
        for k in 0..stores {
            ops.push(EdgeOp::Store { temp: Temp(200 + k as u32), src: PhysReg::int(k as u8) });
        }
        let seq = sequentialize(&ops, |_| {});

        // Simulate.
        use std::collections::HashMap;
        let mut regs: HashMap<PhysReg, i64> =
            (0..16).map(|k| (PhysReg::int(k), 1000 + k as i64)).collect();
        let mut mem: HashMap<Temp, i64> = (0..400).map(|i| (Temp(i), 2000 + i as i64)).collect();
        let mut expect_reg: Vec<(PhysReg, i64)> = Vec::new();
        let mut expect_mem: Vec<(Temp, i64)> = Vec::new();
        for op in &ops {
            match *op {
                EdgeOp::Move { src, dst, .. } => expect_reg.push((dst, regs[&src])),
                EdgeOp::Load { temp, dst } => expect_reg.push((dst, mem[&temp])),
                EdgeOp::Store { temp, src } => expect_mem.push((temp, regs[&src])),
            }
        }
        for (inst, _) in &seq {
            match inst {
                Inst::Mov { dst, src } => {
                    let v = regs[&src.as_phys().unwrap()];
                    regs.insert(dst.as_phys().unwrap(), v);
                }
                Inst::SpillStore { src, temp } => {
                    let v = regs[&src.as_phys().unwrap()];
                    mem.insert(*temp, v);
                }
                Inst::SpillLoad { dst, temp } => {
                    regs.insert(dst.as_phys().unwrap(), mem[temp]);
                }
                other => panic!("case {case}: unexpected {other:?}"),
            }
        }
        for (r, v) in expect_reg {
            assert_eq!(regs[&r], v, "case {case}: register {r} wrong");
        }
        for (t, v) in expect_mem {
            assert_eq!(mem[&t], v, "case {case}: memory {t} wrong");
        }
    }
}

#[test]
fn point_scale_is_coherent() {
    // Read < write within an instruction; boundary between instructions.
    for i in 0..100u32 {
        assert!(Point::read(i) < Point::write(i));
        assert!(Point::write(i) < Point::before(i + 1));
        assert!(Point::before(i) < Point::read(i));
    }
}

/// A block's successors read straight off its terminator: then-target
/// first, equal branch arms once.
fn targets(f: &Function, b: BlockId) -> Vec<BlockId> {
    match f.block(b).insts.last().map(|i| &i.inst) {
        Some(Inst::Jump { target }) => vec![*target],
        Some(Inst::Branch { then_tgt, else_tgt, .. }) if then_tgt == else_tgt => vec![*then_tgt],
        Some(Inst::Branch { then_tgt, else_tgt, .. }) => vec![*then_tgt, *else_tgt],
        _ => vec![],
    }
}

/// Blocks reachable from the entry without passing through `removed`.
fn reachable_without(f: &Function, removed: Option<BlockId>) -> Vec<bool> {
    let mut seen = vec![false; f.num_blocks()];
    let mut stack = vec![f.entry()];
    while let Some(b) = stack.pop() {
        if Some(b) == removed || seen[b.index()] {
            continue;
        }
        seen[b.index()] = true;
        stack.extend(targets(f, b));
    }
    seen
}

/// `dom[d][b]`: among reachable blocks, `d` dominates `b` iff `b` is
/// unreachable from the entry once `d` is removed (or `d == b`).
fn brute_dominance(f: &Function) -> Vec<Vec<bool>> {
    let reach = reachable_without(f, None);
    f.block_ids()
        .map(|d| {
            let without = reachable_without(f, Some(d));
            f.block_ids().map(|b| reach[b.index()] && (d == b || !without[b.index()])).collect()
        })
        .collect()
}

/// The quadratic algorithm `LoopInfo::compute` replaced, on the
/// terminators and brute-force dominance: every back edge `b -> h` (`h`
/// dominates `b`) marks its natural loop with an O(blocks) vector.
fn reference_depths(f: &Function) -> Vec<u32> {
    let n = f.num_blocks();
    let dom = brute_dominance(f);
    let mut preds = vec![Vec::new(); n];
    for b in f.block_ids() {
        for s in targets(f, b) {
            preds[s.index()].push(b);
        }
    }
    let mut depth = vec![0u32; n];
    for b in f.block_ids() {
        for h in targets(f, b) {
            if dom[h.index()][b.index()] {
                let mut in_loop = vec![false; n];
                in_loop[h.index()] = true;
                let mut stack = vec![b];
                while let Some(x) = stack.pop() {
                    if in_loop[x.index()] {
                        continue;
                    }
                    in_loop[x.index()] = true;
                    stack.extend(preds[x.index()].iter().filter(|p| !in_loop[p.index()]));
                }
                for (i, &inl) in in_loop.iter().enumerate() {
                    depth[i] += inl as u32;
                }
            }
        }
    }
    depth
}

fn loop_info(f: &Function, cfg: &Cfg) -> LoopInfo {
    LoopInfo::compute(f, cfg, &Dominators::compute(f, cfg))
}

fn assert_matches_reference(f: &Function, what: &str) {
    let li = loop_info(f, &Cfg::compute(f));
    let got: Vec<u32> = f.block_ids().map(|b| li.depth(b)).collect();
    assert_eq!(got, reference_depths(f), "{what}");
}

/// Reverse postorder of a recursive DFS from the entry that visits
/// successors in terminator order.
fn reference_rpo(f: &Function) -> Vec<BlockId> {
    fn visit(f: &Function, b: BlockId, seen: &mut [bool], post: &mut Vec<BlockId>) {
        seen[b.index()] = true;
        for s in targets(f, b) {
            if !seen[s.index()] {
                visit(f, s, seen, post);
            }
        }
        post.push(b);
    }
    let mut post = Vec::new();
    visit(f, f.entry(), &mut vec![false; f.num_blocks()], &mut post);
    post.reverse();
    post
}

/// Checks every fact of `f`'s `Cfg`, its dominators and its loop depths
/// against brute force.
fn assert_cfg_matches_brute_force(f: &Function, what: &str) {
    let cfg = Cfg::compute(f);
    assert_eq!(cfg.num_blocks(), f.num_blocks(), "{what}");
    for b in f.block_ids() {
        assert_eq!(cfg.succs(b), targets(f, b), "{what}: succs of {b}");
        let preds: Vec<BlockId> = f.block_ids().filter(|&p| targets(f, p).contains(&b)).collect();
        assert_eq!(cfg.preds(b), preds, "{what}: preds of {b}");
    }
    let rpo = reference_rpo(f);
    assert_eq!(cfg.rpo, rpo, "{what}: rpo");
    let reach = reachable_without(f, None);
    for b in f.block_ids() {
        assert_eq!(cfg.is_reachable(b), reach[b.index()], "{what}: reachability of {b}");
        if let Some(i) = rpo.iter().position(|&x| x == b) {
            assert_eq!(cfg.rpo_pos[b.index()], i, "{what}: rpo_pos of {b}");
        }
    }

    let dom = brute_dominance(f);
    let doms = Dominators::compute(f, &cfg);
    for b in f.block_ids().filter(|b| reach[b.index()]) {
        for d in f.block_ids().filter(|d| reach[d.index()]) {
            assert_eq!(doms.dominates(d, b), dom[d.index()][b.index()], "{what}: {d} dom {b}");
        }
        let idom = doms.idom(b).expect("a reachable block has an idom");
        if b == f.entry() {
            assert_eq!(idom, b, "{what}");
            continue;
        }
        // The immediate dominator is the strict dominator every other
        // strict dominator dominates.
        assert!(idom != b && dom[idom.index()][b.index()], "{what}: idom of {b}");
        for d in f.block_ids().filter(|&d| d != b && dom[d.index()][b.index()]) {
            assert!(
                dom[d.index()][idom.index()],
                "{what}: {d} strictly dominates {b} above {idom}"
            );
        }
    }
    for b in f.block_ids().filter(|b| !reach[b.index()]) {
        assert_eq!(doms.idom(b), None, "{what}: unreachable {b}");
    }

    let li = loop_info(f, &cfg);
    let got: Vec<u32> = f.block_ids().map(|b| li.depth(b)).collect();
    assert_eq!(got, reference_depths(f), "{what}: loop depths");
}

/// `Cfg`'s rows and reverse postorder, the dominators and the loop depths
/// built on it agree with brute force on every workload, on random
/// programs, and on random CFGs (self-loops, duplicate branch targets and
/// unreachable blocks included).
#[test]
fn cfg_matches_brute_force() {
    for w in second_chance_regalloc::workloads::all() {
        let m = (w.build)();
        for id in m.func_ids() {
            assert_cfg_matches_brute_force(m.func(id), &format!("{} {id:?}", w.name));
        }
    }
    let mut rng = Lcg::new(0xCF6);
    for _ in 0..CASES {
        let seed = rng.below(1_000_000);
        let config = RandomConfig {
            blocks: 2 + rng.below(30) as usize,
            diamond_percent: rng.below(50),
            critical_edge_percent: rng.below(50),
            ..Default::default()
        };
        let m = RandomProgram::new(seed, config).build(&MachineSpec::alpha_like());
        for id in m.func_ids() {
            assert_cfg_matches_brute_force(m.func(id), &format!("random program {seed} {id:?}"));
        }
    }
    for case in 0..100 {
        let n = 1 + rng.below(24) as usize;
        assert_cfg_matches_brute_force(&random_cfg(&mut rng, n), &format!("random cfg {case}"));
    }
}

/// A random CFG over `n` blocks: every block returns, jumps or branches
/// to random blocks, so irreducible loops, self-loops, duplicate branch
/// targets and unreachable blocks all occur.
fn random_cfg(rng: &mut Lcg, n: usize) -> Function {
    let spec = MachineSpec::alpha_like();
    let mut b = FunctionBuilder::new(&spec, "r", &[]);
    let t = b.int_temp("t");
    b.movi(t, 1);
    let blocks: Vec<BlockId> =
        std::iter::once(BlockId(0)).chain((1..n).map(|_| b.block())).collect();
    for (i, &blk) in blocks.iter().enumerate() {
        b.switch_to(blk);
        let kind = rng.below(6);
        let x = blocks[rng.below(n as u64) as usize];
        let y = blocks[rng.below(n as u64) as usize];
        match kind {
            0 if i > 0 => b.ret(None),
            1 | 2 => b.jump(x),
            _ => b.branch(Cond::Ne, t, x, y),
        }
    }
    b.finish()
}

/// `LoopInfo::compute` (dominance checks on retreating edges only, loop
/// bodies marked in one epoch set) gives every block the depth the
/// quadratic algorithm gave, on every workload, on random programs, and on
/// random CFGs.
#[test]
fn loop_depths_match_the_quadratic_reference() {
    for w in second_chance_regalloc::workloads::all() {
        let m = (w.build)();
        for id in m.func_ids() {
            assert_matches_reference(m.func(id), &format!("{} {id:?}", w.name));
        }
    }
    let mut rng = Lcg::new(1998);
    for seed in 0..40 {
        let config = RandomConfig {
            blocks: 2 + rng.below(30) as usize,
            diamond_percent: rng.below(50),
            critical_edge_percent: rng.below(50),
            ..Default::default()
        };
        let m = RandomProgram::new(seed, config).build(&MachineSpec::alpha_like());
        for id in m.func_ids() {
            assert_matches_reference(m.func(id), &format!("random program {seed} {id:?}"));
        }
    }
    for case in 0..300 {
        let n = 1 + rng.below(24) as usize;
        assert_matches_reference(&random_cfg(&mut rng, n), &format!("random cfg {case}"));
    }
}
