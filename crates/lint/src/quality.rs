//! Family B — allocation-quality lints (`Q1xx`) over physical-register
//! dataflow.
//!
//! These run on an **allocated** function, *before* identity-move removal
//! (`remove_identity_moves`), and flag the residues the paper's machinery
//! exists to suppress:
//!
//! * `Q101` dead spill stores — backward liveness over **spill slots**
//!   (`SpillLoad` generates, `SpillStore` kills): a store whose slot is not
//!   live after it is never reloaded on any path, exactly what the §2.3
//!   consistency bit (`USED_C`) should have caught.
//! * `Q102` redundant reloads — a forward *must* dataflow tracking, per
//!   physical register, the set of spill slots whose current value the
//!   register provably holds (intersection meet, the symbolic checker's
//!   discipline): a `SpillLoad` of a slot already held somewhere wasted a
//!   memory access.
//! * `Q103` identity moves and `Q104` adjacent uncoalesced move chains —
//!   the §2.5 move-optimization residues.
//! * `Q105` low-pressure spills — backward liveness over **physical
//!   registers**: spill code in a block whose per-class pressure never
//!   reaches K means a free register existed at every point in the block
//!   (the spill decision was forced elsewhere; a lifetime-hole split could
//!   have avoided touching this block).

use lsra_analysis::{solve_backward, solve_must, BitSet, Order};
use lsra_ir::{Function, Inst, MachineSpec, Module, Reg, RegClass, Temp};

use crate::{Emitter, LintCode, LintReport};

/// Runs every Family B lint over one allocated function.
///
/// # Panics
///
/// Panics if `f` is not allocated — quality lints are defined over physical
/// code. Run them before `remove_identity_moves` or the `Q103`/`Q104`
/// findings are already gone.
pub fn lint_quality_function(f: &Function, spec: &MachineSpec) -> LintReport {
    assert!(f.allocated, "quality lints run on allocated functions");
    let mut em = Emitter { func: &f.name, lines: None, diags: Vec::new() };
    // Defensive: allocator output is structurally valid by construction, but
    // these lints also run on fuzzer-corrupted modules — never panic.
    let well_formed = !f.blocks.is_empty()
        && f.block_ids().all(|b| {
            let blk = f.block(b);
            blk.is_well_formed() && blk.succs().iter().all(|s| s.index() < f.num_blocks())
        });
    if well_formed {
        let order = Order::compute(f);
        move_lints(f, &mut em);
        dead_store_lint(f, &order, &mut em);
        redundant_reload_lint(f, spec, &order, &mut em);
        low_pressure_lint(f, spec, &order, &mut em);
    }
    let mut report = LintReport { diags: em.diags };
    report.sort();
    report
}

/// Runs every Family B lint over an allocated module.
pub fn lint_quality(m: &Module, spec: &MachineSpec) -> LintReport {
    let mut report = LintReport::new();
    for f in &m.funcs {
        report.merge(lint_quality_function(f, spec));
    }
    report
}

fn slot_of(f: &Function, t: Temp) -> Option<usize> {
    f.spill_slots.get(t.index()).copied().flatten().map(|s| s.0 as usize)
}

/// `Q103` identity moves and `Q104` adjacent move chains.
fn move_lints(f: &Function, em: &mut Emitter<'_>) {
    let as_move = |inst: &Inst| match inst {
        Inst::Mov { dst: Reg::Phys(d), src: Reg::Phys(s) } => Some((*d, *s)),
        _ => None,
    };
    for b in f.block_ids() {
        let insts = &f.block(b).insts;
        for (i, ins) in insts.iter().enumerate() {
            let Some((d, s)) = as_move(&ins.inst) else { continue };
            if d == s {
                em.emit(
                    LintCode::IdentityMove,
                    Some(b),
                    Some(i),
                    format!("identity move {d} = {d} (the postopt pass removes it)"),
                );
                continue;
            }
            if i > 0 {
                if let Some((pd, ps)) = as_move(&insts[i - 1].inst) {
                    // `pd = ps; d = pd` with all three registers distinct:
                    // the second move could read `ps` directly.
                    if pd != ps && s == pd && d != pd {
                        em.emit(
                            LintCode::MoveChain,
                            Some(b),
                            Some(i),
                            format!("move chain {d} <- {pd} <- {ps}; could read {ps} directly"),
                        );
                    }
                }
            }
        }
    }
}

/// `Q101`: backward liveness over spill slots. `SpillLoad` is the only
/// reader of a slot, `SpillStore` the only writer; a store whose slot is
/// dead immediately after it can never be observed.
fn dead_store_lint(f: &Function, order: &Order, em: &mut Emitter<'_>) {
    let ns = f.num_slots as usize;
    if ns == 0 {
        return;
    }
    let nb = f.num_blocks();
    let mut gen = vec![BitSet::new(ns); nb];
    let mut kill = vec![BitSet::new(ns); nb];
    for b in f.block_ids() {
        let bi = b.index();
        for ins in &f.block(b).insts {
            match &ins.inst {
                Inst::SpillLoad { temp, .. } => {
                    if let Some(s) = slot_of(f, *temp) {
                        if !kill[bi].contains(s) {
                            gen[bi].insert(s);
                        }
                    }
                }
                Inst::SpillStore { temp, .. } => {
                    if let Some(s) = slot_of(f, *temp) {
                        kill[bi].insert(s);
                    }
                }
                _ => {}
            }
        }
    }
    let rev: Vec<_> = order.rpo.iter().rev().copied().collect();
    let sol = solve_backward(f, ns, &gen, &kill, &rev);

    for &b in &order.rpo {
        let mut live = sol.live_out[b.index()].clone();
        for (i, ins) in f.block(b).insts.iter().enumerate().rev() {
            match &ins.inst {
                Inst::SpillLoad { temp, .. } => {
                    if let Some(s) = slot_of(f, *temp) {
                        live.insert(s);
                    }
                }
                Inst::SpillStore { temp, .. } => {
                    if let Some(s) = slot_of(f, *temp) {
                        if !live.contains(s) {
                            em.emit(
                                LintCode::DeadSpillStore,
                                Some(b),
                                Some(i),
                                format!(
                                    "spill store of {temp} (slot {s}) is dead: \
                                     no path reloads it before the next store"
                                ),
                            );
                        }
                        live.remove(s);
                    }
                }
                _ => {}
            }
        }
    }
}

/// `Q102`: forward must-dataflow mapping each physical register to the set
/// of spill slots whose *current* value it provably holds. Not a gen/kill
/// problem (moves copy whole sets between locations), so it runs on the
/// general [`solve_must`] fixpoint, like the symbolic checker.
fn redundant_reload_lint(f: &Function, spec: &MachineSpec, order: &Order, em: &mut Emitter<'_>) {
    let ns = f.num_slots as usize;
    if ns == 0 {
        return;
    }
    let nlocs = spec.total_regs();
    // State: per physical register, the set of spill slots whose current
    // value the register provably holds.
    type State = Vec<BitSet>;

    /// One-instruction transfer; with `report`, `SpillLoad`s of an
    /// already-held slot emit `Q102` before the state updates.
    fn step(
        f: &Function,
        spec: &MachineSpec,
        st: &mut State,
        ins: &lsra_ir::Ins,
        report: Option<(&mut Emitter<'_>, lsra_ir::BlockId, usize)>,
    ) {
        match &ins.inst {
            Inst::SpillLoad { dst: Reg::Phys(d), temp } => {
                let slot = slot_of(f, *temp);
                if let (Some(s), Some((em, b, i))) = (slot, report) {
                    let holder = spec.reg_indices(d.class).find(|&l| st[l].contains(s));
                    if let Some(l) = holder {
                        let r = spec.reg_at(l);
                        em.emit(
                            LintCode::RedundantReload,
                            Some(b),
                            Some(i),
                            format!(
                                "reload of {temp} (slot {s}) is redundant: \
                                 the value is already in {r} on every path"
                            ),
                        );
                    }
                }
                st[spec.reg_index(*d)].clear();
                if let Some(s) = slot {
                    st[spec.reg_index(*d)].insert(s);
                }
            }
            Inst::SpillStore { src: Reg::Phys(p), temp } => {
                if let Some(s) = slot_of(f, *temp) {
                    // The slot's value changed: only the stored-from
                    // register holds it now.
                    for set in st.iter_mut() {
                        set.remove(s);
                    }
                    st[spec.reg_index(*p)].insert(s);
                }
            }
            Inst::Mov { dst: Reg::Phys(d), src: Reg::Phys(sr) } => {
                st[spec.reg_index(*d)] = st[spec.reg_index(*sr)].clone();
            }
            Inst::Call { ret_regs, .. } => {
                for c in RegClass::ALL {
                    for r in spec.caller_saved(c) {
                        st[spec.reg_index(r)].clear();
                    }
                }
                for r in ret_regs {
                    st[spec.reg_index(*r)].clear();
                }
            }
            inst => {
                inst.for_each_def(|r| {
                    if let Reg::Phys(p) = r {
                        st[spec.reg_index(p)].clear();
                    }
                });
            }
        }
    }

    let mut all = BitSet::new(ns);
    all.fill();
    let sol =
        solve_must(f, &order.rpo, &vec![BitSet::new(ns); nlocs], &vec![all; nlocs], |b, st| {
            for ins in &f.block(b).insts {
                step(f, spec, st, ins, None);
            }
            Ok::<(), std::convert::Infallible>(())
        });
    let Ok(sol) = sol;
    for &b in &order.rpo {
        let mut st = sol.ins[b.index()].clone().expect("visited block has an IN state");
        for (i, ins) in f.block(b).insts.iter().enumerate() {
            step(f, spec, &mut st, ins, Some((&mut *em, b, i)));
        }
    }
}

/// `Q105`: backward liveness over physical registers; if a block contains
/// spill code of class `c` but the class's live count never reaches
/// `num_regs(c)` anywhere in the block, a free register existed at every
/// point in it.
fn low_pressure_lint(f: &Function, spec: &MachineSpec, order: &Order, em: &mut Emitter<'_>) {
    let has_spill = f.block_ids().any(|b| f.block(b).insts.iter().any(|ins| ins.tag.is_spill()));
    if !has_spill {
        return;
    }
    let nlocs = spec.total_regs();
    let nb = f.num_blocks();
    let mut gen = vec![BitSet::new(nlocs); nb];
    let mut kill = vec![BitSet::new(nlocs); nb];
    for b in f.block_ids() {
        let bi = b.index();
        for ins in &f.block(b).insts {
            ins.inst.for_each_use(|r| {
                if let Reg::Phys(p) = r {
                    if !kill[bi].contains(spec.reg_index(p)) {
                        gen[bi].insert(spec.reg_index(p));
                    }
                }
            });
            ins.inst.for_each_def(|r| {
                if let Reg::Phys(p) = r {
                    kill[bi].insert(spec.reg_index(p));
                }
            });
            if ins.inst.is_call() {
                // Caller-saved registers are clobbered: a definition for
                // liveness purposes.
                for c in RegClass::ALL {
                    for r in spec.caller_saved(c) {
                        kill[bi].insert(spec.reg_index(r));
                    }
                }
            }
        }
    }
    let rev: Vec<_> = order.rpo.iter().rev().copied().collect();
    let sol = solve_backward(f, nlocs, &gen, &kill, &rev);

    for &b in &order.rpo {
        let insts = &f.block(b).insts;
        // First spill instruction per class, for the diagnostic's span.
        let mut spill_at: [Option<usize>; 2] = [None, None];
        let mut spill_count = [0usize; 2];
        for (i, ins) in insts.iter().enumerate() {
            if !ins.tag.is_spill() {
                continue;
            }
            let class = match &ins.inst {
                Inst::SpillLoad { temp, .. } | Inst::SpillStore { temp, .. } => f.temp_class(*temp),
                Inst::Mov { dst: Reg::Phys(d), .. } => d.class,
                _ => continue,
            };
            let ci = class.index();
            spill_at[ci].get_or_insert(i);
            spill_count[ci] += 1;
        }
        if spill_at.iter().all(Option::is_none) {
            continue;
        }
        // Max per-class live count over every program point in the block.
        let mut live = sol.live_out[b.index()].clone();
        let count = |live: &BitSet| {
            let mut n = [0u32; 2];
            for l in live.iter() {
                n[spec.reg_at(l).class.index()] += 1;
            }
            n
        };
        let mut maxp = count(&live);
        for ins in insts.iter().rev() {
            ins.inst.for_each_def(|r| {
                if let Reg::Phys(p) = r {
                    live.remove(spec.reg_index(p));
                }
            });
            if ins.inst.is_call() {
                for c in RegClass::ALL {
                    for r in spec.caller_saved(c) {
                        live.remove(spec.reg_index(r));
                    }
                }
            }
            ins.inst.for_each_use(|r| {
                if let Reg::Phys(p) = r {
                    live.insert(spec.reg_index(p));
                }
            });
            let n = count(&live);
            maxp = [maxp[0].max(n[0]), maxp[1].max(n[1])];
        }
        for c in RegClass::ALL {
            let ci = c.index();
            let k = u32::from(spec.num_regs(c));
            if let Some(i) = spill_at[ci] {
                if maxp[ci] < k {
                    em.emit(
                        LintCode::LowPressureSpill,
                        Some(b),
                        Some(i),
                        format!(
                            "{} {c} spill instruction(s) in a block whose {c} pressure \
                             peaks at {} < {k} (a register was free throughout)",
                            spill_count[ci], maxp[ci]
                        ),
                    );
                }
            }
        }
    }
}
