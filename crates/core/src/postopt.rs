//! Post-allocation spill-code cleanup — the paper's suggested follow-up
//! pass (§2.4: "a global optimization pass run after allocation can
//! eliminate unnecessary load/store pairs as well as partially redundant
//! spill instructions using hoisting and sinking techniques"; §3.1 makes
//! the same observation about the eqntott/espresso output).
//!
//! This implements the profitable core of that suggestion on allocated
//! code:
//!
//! 1. **Load forwarding**: when a spill slot's current value is known to
//!    live in a register (after a store to, or load from, that slot), a
//!    later reload becomes a register move — "when loads and stores to the
//!    same stack location meet, we can replace the two operations with a
//!    move". Works within blocks and across single-predecessor edges. The
//!    move is then removed entirely when source and destination coincide.
//! 2. **Dead spill-store elimination**: spill slots are function-private,
//!    so a store whose slot is never reloaded afterwards (on any path) is
//!    dead and is removed.
//!
//! The pass is *not* part of the default allocator pipeline — the paper
//! left it as future work and reports numbers without it — but the
//! evaluation harness exposes it as an ablation.

use lsra_analysis::{BitSet, Cfg};
use lsra_ir::{Function, Inst, MachineSpec, PhysReg, Reg, SlotId, SpillTag};

/// What the cleanup removed or rewrote.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PostOptStats {
    /// Reloads turned into register moves.
    pub loads_forwarded: u64,
    /// Reloads removed outright (value already in the right register).
    pub loads_removed: u64,
    /// Dead spill stores removed.
    pub dead_stores_removed: u64,
}

/// The value currently known to be held by each spill slot.
#[derive(Clone, Debug, Default, PartialEq)]
struct SlotMap {
    entries: Vec<(SlotId, PhysReg)>,
}

impl SlotMap {
    fn get(&self, slot: SlotId) -> Option<PhysReg> {
        self.entries.iter().find(|(s, _)| *s == slot).map(|&(_, r)| r)
    }

    fn set(&mut self, slot: SlotId, reg: PhysReg) {
        self.entries.retain(|(s, _)| *s != slot);
        self.entries.push((slot, reg));
    }

    fn invalidate_reg(&mut self, reg: PhysReg) {
        self.entries.retain(|(_, r)| *r != reg);
    }

    fn invalidate_caller_saved(&mut self, spec: &MachineSpec) {
        self.entries.retain(|(_, r)| spec.is_callee_saved(*r));
    }
}

/// Runs the cleanup on an allocated function.
///
/// # Panics
///
/// Panics if the function has not been register-allocated yet (the pass
/// reasons about physical registers only).
pub fn optimize_spill_code(f: &mut Function, spec: &MachineSpec) -> PostOptStats {
    assert!(f.allocated, "post-allocation cleanup requires an allocated function");
    let mut stats = PostOptStats::default();
    let cfg = Cfg::compute(f); // neither pass touches a terminator
    forward_loads(f, &cfg, spec, &mut stats);
    remove_dead_stores(f, &cfg, &mut stats);
    stats
}

fn slot_of(f: &Function, t: lsra_ir::Temp) -> SlotId {
    f.spill_slots[t.index()].expect("spill instruction references temp without slot")
}

fn forward_loads(f: &mut Function, cfg: &Cfg, spec: &MachineSpec, stats: &mut PostOptStats) {
    // Exit maps of already-processed blocks, used across single-pred edges.
    let mut exit_maps: Vec<Option<SlotMap>> = vec![None; f.num_blocks()];
    for b in f.block_ids().collect::<Vec<_>>() {
        let mut map = match cfg.preds(b) {
            // A unique, already-processed predecessor seeds the map (its
            // terminator writes no register).
            [p] if p.index() < b.index() => exit_maps[p.index()].clone().unwrap_or_default(),
            _ => SlotMap::default(),
        };
        let insts = std::mem::take(&mut f.block_mut(b).insts);
        let mut out = Vec::with_capacity(insts.len());
        for mut ins in insts {
            match &ins.inst {
                Inst::SpillStore { src: Reg::Phys(r), temp } => {
                    let slot = f.spill_slots[temp.index()].expect("slot");
                    map.set(slot, *r);
                    out.push(ins);
                }
                Inst::SpillLoad { dst: Reg::Phys(d), temp } => {
                    let slot = f.spill_slots[temp.index()].expect("slot");
                    let known = map.get(slot);
                    match known {
                        Some(r) if r == *d => {
                            // Value already sits in the destination.
                            stats.loads_removed += 1;
                            // (dropped)
                        }
                        Some(r) => {
                            stats.loads_forwarded += 1;
                            let tag = match ins.tag {
                                SpillTag::ResolveLoad => SpillTag::ResolveMove,
                                _ => SpillTag::EvictMove,
                            };
                            map.invalidate_reg(*d);
                            map.set(slot, *d);
                            ins.inst = Inst::Mov { dst: Reg::Phys(*d), src: Reg::Phys(r) };
                            ins.tag = tag;
                            out.push(ins);
                        }
                        None => {
                            map.invalidate_reg(*d);
                            map.set(slot, *d);
                            out.push(ins);
                        }
                    }
                }
                _ => {
                    if ins.inst.is_call() {
                        map.invalidate_caller_saved(spec);
                    }
                    ins.inst.for_each_def(|r| {
                        if let Reg::Phys(p) = r {
                            map.invalidate_reg(p);
                        }
                    });
                    out.push(ins);
                }
            }
        }
        f.block_mut(b).insts = out;
        exit_maps[b.index()] = Some(map);
    }
}

fn remove_dead_stores(f: &mut Function, cfg: &Cfg, stats: &mut PostOptStats) {
    let ns = f.num_slots as usize;
    if ns == 0 {
        return;
    }
    // Backward slot-liveness: gen = slot loaded before any store in the
    // block; kill = slot stored.
    let nb = f.num_blocks();
    let mut gen = vec![BitSet::new(ns); nb];
    let mut kill = vec![BitSet::new(ns); nb];
    for b in f.block_ids() {
        let bi = b.index();
        for ins in &f.block(b).insts {
            match &ins.inst {
                Inst::SpillLoad { temp, .. } => {
                    let s = slot_of(f, *temp);
                    if !kill[bi].contains(s.index()) {
                        gen[bi].insert(s.index());
                    }
                }
                Inst::SpillStore { temp, .. } => {
                    kill[bi].insert(slot_of(f, *temp).index());
                }
                _ => {}
            }
        }
    }
    let order = (0..nb as u32).rev().map(lsra_ir::BlockId);
    let sol = lsra_analysis::solve_backward(cfg, ns, &gen, &kill, order);
    let live_out = sol.live_out;
    // Backward sweep per block removing stores to dead slots.
    let slots = f.spill_slots.clone();
    for b in f.block_ids().collect::<Vec<_>>() {
        let bi = b.index();
        let mut live = live_out[bi].clone();
        let block = f.block_mut(b);
        let mut keep = vec![true; block.insts.len()];
        for (i, ins) in block.insts.iter().enumerate().rev() {
            match &ins.inst {
                Inst::SpillStore { temp, .. } => {
                    let s = slots[temp.index()].expect("slot").index();
                    if live.contains(s) {
                        live.remove(s);
                    } else {
                        keep[i] = false;
                        stats.dead_stores_removed += 1;
                    }
                }
                Inst::SpillLoad { temp, .. } => {
                    live.insert(slots[temp.index()].expect("slot").index());
                }
                _ => {}
            }
        }
        let mut it = keep.iter();
        block.insts.retain(|_| *it.next().unwrap());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinpackAllocator, RegisterAllocator};
    use lsra_ir::{Cond, ExtFn, FunctionBuilder, MachineSpec, ModuleBuilder, RegClass};
    use lsra_vm::{verify_allocation, VmOptions};

    /// High-pressure module that produces plenty of spill code.
    fn spilling_module(spec: &MachineSpec) -> lsra_ir::Module {
        let mut mb = ModuleBuilder::new("po", 8);
        let mut b = FunctionBuilder::new(spec, "main", &[]);
        let temps: Vec<_> = (0..10).map(|i| b.int_temp(&format!("v{i}"))).collect();
        for (i, &t) in temps.iter().enumerate() {
            b.movi(t, i as i64 + 1);
        }
        let n = b.int_temp("n");
        b.movi(n, 25);
        let head = b.block();
        let body = b.block();
        let exit = b.block();
        b.jump(head);
        b.switch_to(head);
        b.branch(Cond::Le, n, exit, body);
        b.switch_to(body);
        let c = b.call_ext(ExtFn::GetChar, &[], Some(RegClass::Int)).unwrap();
        for &t in &temps {
            b.add(t, t, c);
        }
        b.addi(n, n, -1);
        b.jump(head);
        b.switch_to(exit);
        let acc = b.int_temp("acc");
        b.movi(acc, 0);
        // Each value is folded twice: a spilled temporary is then loaded
        // twice in one block and the second load can be forwarded.
        for &t in &temps {
            b.add(acc, acc, t);
            b.add(acc, acc, t);
        }
        b.ret(Some(acc.into()));
        let id = mb.add(b.finish());
        mb.entry(id);
        mb.finish()
    }

    #[test]
    fn cleanup_preserves_behaviour_and_saves_work() {
        let spec = MachineSpec::small(5, 2);
        let module = spilling_module(&spec);
        let input = vec![3u8; 25];

        let mut plain = module.clone();
        // Two-pass binpacking produces the densest load/store traffic
        // (store per definition, load per use), giving the cleanup the most
        // to find.
        BinpackAllocator::two_pass().allocate_module(&mut plain, &spec);
        let before = verify_allocation(&module, &plain, &spec, &input, VmOptions::default())
            .expect("plain allocation verifies");

        let mut optimized = plain.clone();
        let mut total = PostOptStats::default();
        for id in optimized.func_ids().collect::<Vec<_>>() {
            let s = optimize_spill_code(optimized.func_mut(id), &spec);
            total.loads_forwarded += s.loads_forwarded;
            total.loads_removed += s.loads_removed;
            total.dead_stores_removed += s.dead_stores_removed;
            lsra_analysis::remove_identity_moves(optimized.func_mut(id));
        }
        let after = verify_allocation(&module, &optimized, &spec, &input, VmOptions::default())
            .expect("optimized allocation verifies");
        assert!(
            total.loads_forwarded + total.loads_removed + total.dead_stores_removed > 0,
            "expected the cleanup to find something: {total:?}"
        );
        assert!(
            after.counts.total <= before.counts.total,
            "cleanup made the program slower: {} vs {}",
            after.counts.total,
            before.counts.total
        );
    }

    #[test]
    fn forwarding_replaces_load_after_store() {
        // Hand-written allocated code: store r1 to a slot, then reload into
        // r2 — must become a move.
        let spec = MachineSpec::alpha_like();
        let mut f = lsra_ir::Function::new("t");
        let t = f.new_temp(RegClass::Int, None);
        let slot = f.slot_for(t);
        let b0 = f.add_block();
        let r1: Reg = PhysReg::int(1).into();
        let r2: Reg = PhysReg::int(2).into();
        f.block_mut(b0).insts.extend([
            lsra_ir::Ins::new(Inst::MovI { dst: r1, imm: 5 }),
            lsra_ir::Ins::tagged(Inst::SpillStore { src: r1, temp: t }, SpillTag::EvictStore),
            lsra_ir::Ins::tagged(Inst::SpillLoad { dst: r2, temp: t }, SpillTag::EvictLoad),
            lsra_ir::Ins::new(Inst::Ret { ret_regs: vec![] }),
        ]);
        f.allocated = true;
        let stats = optimize_spill_code(&mut f, &spec);
        assert_eq!(stats.loads_forwarded, 1);
        assert_eq!(
            f.count_insts(|i| matches!(i, Inst::SpillLoad { .. })),
            0,
            "reload must be gone"
        );
        assert_eq!(f.count_insts(|i| i.is_move()), 1);
        let _ = slot;
    }

    #[test]
    fn forwarding_respects_register_clobbers() {
        // A call between store and load clobbers the caller-saved source:
        // the reload must stay.
        let spec = MachineSpec::alpha_like();
        let mut f = lsra_ir::Function::new("t");
        let t = f.new_temp(RegClass::Int, None);
        f.slot_for(t);
        let b0 = f.add_block();
        let r1: Reg = PhysReg::int(1).into(); // caller-saved
        f.block_mut(b0).insts.extend([
            lsra_ir::Ins::new(Inst::MovI { dst: r1, imm: 5 }),
            lsra_ir::Ins::tagged(Inst::SpillStore { src: r1, temp: t }, SpillTag::EvictStore),
            lsra_ir::Ins::new(Inst::Call {
                callee: lsra_ir::Callee::Ext(ExtFn::GetChar),
                arg_regs: vec![],
                ret_regs: vec![spec.ret_reg(RegClass::Int)],
            }),
            lsra_ir::Ins::tagged(Inst::SpillLoad { dst: r1, temp: t }, SpillTag::EvictLoad),
            lsra_ir::Ins::new(Inst::Ret { ret_regs: vec![] }),
        ]);
        f.allocated = true;
        let stats = optimize_spill_code(&mut f, &spec);
        assert_eq!(stats.loads_forwarded + stats.loads_removed, 0);
        assert_eq!(f.count_insts(|i| matches!(i, Inst::SpillLoad { .. })), 1);
    }

    #[test]
    fn dead_stores_are_removed() {
        let spec = MachineSpec::alpha_like();
        let mut f = lsra_ir::Function::new("t");
        let t = f.new_temp(RegClass::Int, None);
        f.slot_for(t);
        let b0 = f.add_block();
        let r1: Reg = PhysReg::int(1).into();
        f.block_mut(b0).insts.extend([
            lsra_ir::Ins::new(Inst::MovI { dst: r1, imm: 5 }),
            lsra_ir::Ins::tagged(Inst::SpillStore { src: r1, temp: t }, SpillTag::EvictStore),
            lsra_ir::Ins::new(Inst::Ret { ret_regs: vec![] }),
        ]);
        f.allocated = true;
        let stats = optimize_spill_code(&mut f, &spec);
        assert_eq!(stats.dead_stores_removed, 1);
        assert_eq!(f.count_insts(|i| matches!(i, Inst::SpillStore { .. })), 0);
    }

    #[test]
    fn live_store_is_kept() {
        // Store then reload in a successor block: live.
        let spec = MachineSpec::alpha_like();
        let mut f = lsra_ir::Function::new("t");
        let t = f.new_temp(RegClass::Int, None);
        f.slot_for(t);
        let b0 = f.add_block();
        let b1 = f.add_block();
        let r1: Reg = PhysReg::int(1).into();
        let r2: Reg = PhysReg::int(2).into();
        f.block_mut(b0).insts.extend([
            lsra_ir::Ins::new(Inst::MovI { dst: r1, imm: 5 }),
            lsra_ir::Ins::tagged(Inst::SpillStore { src: r1, temp: t }, SpillTag::EvictStore),
            lsra_ir::Ins::new(Inst::Jump { target: b1 }),
        ]);
        f.block_mut(b1).insts.extend([
            lsra_ir::Ins::tagged(Inst::SpillLoad { dst: r2, temp: t }, SpillTag::EvictLoad),
            lsra_ir::Ins::new(Inst::Ret { ret_regs: vec![] }),
        ]);
        f.allocated = true;
        let stats = optimize_spill_code(&mut f, &spec);
        // The load forwards across the single-pred edge into a move, which
        // in turn makes the store dead: the whole pair collapses, exactly
        // the "loads and stores meet" replacement of §2.4.
        assert_eq!(stats.loads_forwarded, 1);
        assert_eq!(stats.dead_stores_removed, 1);
        assert_eq!(f.count_insts(|i| matches!(i, Inst::SpillStore { .. })), 0);
        assert_eq!(f.count_insts(|i| i.is_move()), 1);
    }
}
