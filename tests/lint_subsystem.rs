//! End-to-end tests of the static lint subsystem: every shipped lint code
//! fires on its minimal handcrafted trigger and stays silent on the clean
//! twin; the quality lints hold their baseline on real allocator output
//! (zero dead spill stores on the golden workloads, all identity-move
//! diagnostics cleared by the postopt pass, corrupted store suppression
//! caught); and every rendering is byte-deterministic.

use second_chance_regalloc::ir::{BlockId, Callee, FuncId, Ins};
use second_chance_regalloc::lint::{
    lint_input_function, lint_quality, lint_quality_function, LintCode, LintReport,
};
use second_chance_regalloc::prelude::*;

fn spec() -> MachineSpec {
    MachineSpec::alpha_like()
}

fn lint_a(f: &Function) -> LintReport {
    lint_input_function(f, None)
}

/// A function whose only flaw is the one the caller injects afterwards.
fn clean_fn() -> Function {
    let spec = spec();
    let mut b = FunctionBuilder::new(&spec, "f", &[]);
    let x = b.int_temp("x");
    b.movi(x, 1);
    b.ret(Some(x.into()));
    b.finish()
}

#[test]
fn l001_use_before_def() {
    let spec = spec();
    let mut b = FunctionBuilder::new(&spec, "f", &[]);
    let x = b.int_temp("x");
    let y = b.int_temp("y");
    b.add(y, x, x);
    b.ret(Some(y.into()));
    let firing = b.finish();
    let r = lint_a(&firing);
    assert_eq!(r.count(LintCode::UseBeforeDef), 1, "{}", r.render_human());
    assert!(r.diags[0].message.contains("t0"), "{}", r.render_human());

    // Clean twin: the same shape with the definition in place.
    let r = lint_a(&clean_fn());
    assert_eq!(r.count(LintCode::UseBeforeDef), 0, "{}", r.render_human());

    // A parameter is defined by the calling convention, not a use-before-def.
    let mut b = FunctionBuilder::new(&spec, "p", &[RegClass::Int]);
    let p = b.param(0);
    let y = b.int_temp("y");
    b.add(y, p, p);
    b.ret(Some(y.into()));
    let r = lint_a(&b.finish());
    assert_eq!(r.count(LintCode::UseBeforeDef), 0, "{}", r.render_human());
}

#[test]
fn l001_needs_a_definition_on_every_path() {
    // Diamond where only one arm defines `x`: the must-dataflow flags the
    // read at the join; defining it on both arms silences the lint.
    let build = |both_arms: bool| {
        let spec = spec();
        let mut b = FunctionBuilder::new(&spec, "d", &[RegClass::Int]);
        let c = b.param(0);
        let x = b.int_temp("x");
        let y = b.int_temp("y");
        let (left, right, join) = (b.block(), b.block(), b.block());
        b.branch(Cond::Gt, c, left, right);
        b.switch_to(left);
        b.movi(x, 1);
        b.jump(join);
        b.switch_to(right);
        if both_arms {
            b.movi(x, 2);
        }
        b.jump(join);
        b.switch_to(join);
        b.add(y, x, x);
        b.ret(Some(y.into()));
        b.finish()
    };
    assert_eq!(lint_a(&build(false)).count(LintCode::UseBeforeDef), 1);
    assert_eq!(lint_a(&build(true)).count(LintCode::UseBeforeDef), 0);
}

#[test]
fn l002_unreachable_block() {
    let spec = spec();
    let mut b = FunctionBuilder::new(&spec, "f", &[]);
    let dead = b.block();
    b.ret(None);
    b.switch_to(dead);
    b.ret(None);
    let r = lint_a(&b.finish());
    assert_eq!(r.count(LintCode::UnreachableBlock), 1, "{}", r.render_human());

    let mut b = FunctionBuilder::new(&spec, "f", &[]);
    let tail = b.block();
    b.jump(tail);
    b.switch_to(tail);
    b.ret(None);
    let r = lint_a(&b.finish());
    assert_eq!(r.count(LintCode::UnreachableBlock), 0, "{}", r.render_human());
}

#[test]
fn l003_bad_block_target() {
    let mut firing = clean_fn();
    let last = firing.blocks[0].insts.len() - 1;
    firing.blocks[0].insts[last].inst = Inst::Jump { target: BlockId(9) };
    let r = lint_a(&firing);
    assert_eq!(r.count(LintCode::BadBlockTarget), 1, "{}", r.render_human());
    // The CFG lints are gated off for structurally broken functions.
    assert_eq!(r.count(LintCode::UnreachableBlock), 0);

    assert_eq!(lint_a(&clean_fn()).count(LintCode::BadBlockTarget), 0);
}

#[test]
fn l004_duplicate_branch_target() {
    let spec = spec();
    let build = |same: bool| {
        let mut b = FunctionBuilder::new(&spec, "f", &[RegClass::Int]);
        let c = b.param(0);
        let (t1, t2) = (b.block(), b.block());
        b.branch(Cond::Gt, c, t1, if same { t1 } else { t2 });
        b.switch_to(t1);
        b.ret(None);
        b.switch_to(t2);
        b.ret(None);
        b.finish()
    };
    assert_eq!(lint_a(&build(true)).count(LintCode::DuplicateBranchTarget), 1);
    assert_eq!(lint_a(&build(false)).count(LintCode::DuplicateBranchTarget), 0);
}

#[test]
fn l005_class_mismatch() {
    let mut firing = clean_fn();
    // The int temp now receives a float immediate.
    let dst = match firing.blocks[0].insts[0].inst {
        Inst::MovI { dst, .. } => dst,
        _ => unreachable!(),
    };
    firing.blocks[0].insts[0].inst = Inst::MovF { dst, imm: 1.0 };
    let r = lint_a(&firing);
    assert_eq!(r.count(LintCode::ClassMismatch), 1, "{}", r.render_human());

    assert_eq!(lint_a(&clean_fn()).count(LintCode::ClassMismatch), 0);
}

#[test]
fn l006_malformed_block() {
    // Unterminated block.
    let mut firing = clean_fn();
    firing.blocks[0].insts.pop();
    let r = lint_a(&firing);
    assert_eq!(r.count(LintCode::MalformedBlock), 1, "{}", r.render_human());

    // Interior terminator.
    let mut firing = clean_fn();
    firing.blocks[0].insts.insert(0, Ins::new(Inst::Ret { ret_regs: Vec::new() }));
    let r = lint_a(&firing);
    assert_eq!(r.count(LintCode::MalformedBlock), 1, "{}", r.render_human());

    // Empty block and blockless function.
    let mut firing = clean_fn();
    firing.blocks.push(second_chance_regalloc::ir::Block::new());
    assert_eq!(lint_a(&firing).count(LintCode::MalformedBlock), 1);
    assert_eq!(lint_a(&Function::new("e")).count(LintCode::MalformedBlock), 1);

    assert_eq!(lint_a(&clean_fn()).count(LintCode::MalformedBlock), 0);
}

#[test]
fn l007_critical_edge() {
    let spec = spec();
    // b0 has two successors and b2 has two predecessors: b0 -> b2 is
    // critical. The clean twin is a full diamond (split arms), which has
    // multi-pred joins and multi-succ branches but no edge that is both.
    let build = |diamond: bool| {
        let mut b = FunctionBuilder::new(&spec, "f", &[RegClass::Int]);
        let c = b.param(0);
        let (arm, join) = (b.block(), b.block());
        if diamond {
            let arm2 = b.block();
            b.branch(Cond::Gt, c, arm, arm2);
            b.switch_to(arm2);
            b.jump(join);
        } else {
            b.branch(Cond::Gt, c, arm, join);
        }
        b.switch_to(arm);
        b.jump(join);
        b.switch_to(join);
        b.ret(None);
        b.finish()
    };
    let r = lint_a(&build(false));
    assert_eq!(r.count(LintCode::CriticalEdge), 1, "{}", r.render_human());
    assert_eq!(lint_a(&build(true)).count(LintCode::CriticalEdge), 0);
}

/// An allocated (physical-code) function skeleton for the quality lints.
fn phys_fn(name: &str) -> Function {
    let mut f = Function::new(name);
    f.allocated = true;
    f.add_block();
    f
}

fn push(f: &mut Function, inst: Inst, tag: SpillTag) {
    f.blocks[0].insts.push(Ins { inst, tag });
}

fn ret(f: &mut Function) {
    push(f, Inst::Ret { ret_regs: Vec::new() }, SpillTag::None);
}

#[test]
fn q101_dead_spill_store() {
    let sp = spec();
    let r0: Reg = PhysReg::int(0).into();
    let r1: Reg = PhysReg::int(1).into();

    let mut firing = phys_fn("q");
    let t = firing.new_temp(RegClass::Int, None);
    firing.slot_for(t);
    push(&mut firing, Inst::MovI { dst: r0, imm: 1 }, SpillTag::None);
    push(&mut firing, Inst::SpillStore { src: r0, temp: t }, SpillTag::EvictStore);
    ret(&mut firing);
    let r = lint_quality_function(&firing, &sp);
    assert_eq!(r.count(LintCode::DeadSpillStore), 1, "{}", r.render_human());

    // Clean twin: the slot is reloaded before the function ends (with the
    // source register clobbered in between, so Q102 stays quiet too).
    let mut clean = phys_fn("q");
    let t = clean.new_temp(RegClass::Int, None);
    clean.slot_for(t);
    push(&mut clean, Inst::MovI { dst: r0, imm: 1 }, SpillTag::None);
    push(&mut clean, Inst::SpillStore { src: r0, temp: t }, SpillTag::EvictStore);
    push(&mut clean, Inst::MovI { dst: r0, imm: 2 }, SpillTag::None);
    push(&mut clean, Inst::SpillLoad { dst: r1, temp: t }, SpillTag::EvictLoad);
    ret(&mut clean);
    let r = lint_quality_function(&clean, &sp);
    assert_eq!(r.count(LintCode::DeadSpillStore), 0, "{}", r.render_human());
    assert_eq!(r.count(LintCode::RedundantReload), 0, "{}", r.render_human());
}

#[test]
fn q102_redundant_reload() {
    let sp = spec();
    let r0: Reg = PhysReg::int(0).into();
    let r1: Reg = PhysReg::int(1).into();

    // r0 still provably holds the slot's value when it is reloaded.
    let mut firing = phys_fn("q");
    let t = firing.new_temp(RegClass::Int, None);
    firing.slot_for(t);
    push(&mut firing, Inst::MovI { dst: r0, imm: 1 }, SpillTag::None);
    push(&mut firing, Inst::SpillStore { src: r0, temp: t }, SpillTag::EvictStore);
    push(&mut firing, Inst::SpillLoad { dst: r1, temp: t }, SpillTag::EvictLoad);
    ret(&mut firing);
    let r = lint_quality_function(&firing, &sp);
    assert_eq!(r.count(LintCode::RedundantReload), 1, "{}", r.render_human());
    assert!(r.diags.iter().any(|d| d.message.contains("r0")), "{}", r.render_human());

    // Clean twin: the holder is clobbered first (same as Q101's twin).
    let mut clean = phys_fn("q");
    let t = clean.new_temp(RegClass::Int, None);
    clean.slot_for(t);
    push(&mut clean, Inst::MovI { dst: r0, imm: 1 }, SpillTag::None);
    push(&mut clean, Inst::SpillStore { src: r0, temp: t }, SpillTag::EvictStore);
    push(&mut clean, Inst::MovI { dst: r0, imm: 2 }, SpillTag::None);
    push(&mut clean, Inst::SpillLoad { dst: r1, temp: t }, SpillTag::EvictLoad);
    ret(&mut clean);
    let r = lint_quality_function(&clean, &sp);
    assert_eq!(r.count(LintCode::RedundantReload), 0, "{}", r.render_human());
}

#[test]
fn q103_identity_move() {
    let sp = spec();
    let r0: Reg = PhysReg::int(0).into();
    let r1: Reg = PhysReg::int(1).into();

    let mut firing = phys_fn("q");
    push(&mut firing, Inst::Mov { dst: r0, src: r0 }, SpillTag::EvictMove);
    ret(&mut firing);
    let r = lint_quality_function(&firing, &sp);
    assert_eq!(r.count(LintCode::IdentityMove), 1, "{}", r.render_human());

    let mut clean = phys_fn("q");
    push(&mut clean, Inst::MovI { dst: r1, imm: 0 }, SpillTag::None);
    push(&mut clean, Inst::Mov { dst: r0, src: r1 }, SpillTag::EvictMove);
    ret(&mut clean);
    let r = lint_quality_function(&clean, &sp);
    assert_eq!(r.count(LintCode::IdentityMove), 0, "{}", r.render_human());
}

#[test]
fn q104_move_chain() {
    let sp = spec();
    let r0: Reg = PhysReg::int(0).into();
    let r1: Reg = PhysReg::int(1).into();
    let r2: Reg = PhysReg::int(2).into();

    let mut firing = phys_fn("q");
    push(&mut firing, Inst::MovI { dst: r0, imm: 0 }, SpillTag::None);
    push(&mut firing, Inst::Mov { dst: r1, src: r0 }, SpillTag::None);
    push(&mut firing, Inst::Mov { dst: r2, src: r1 }, SpillTag::None);
    ret(&mut firing);
    let r = lint_quality_function(&firing, &sp);
    assert_eq!(r.count(LintCode::MoveChain), 1, "{}", r.render_human());

    // Clean twin: the second move already reads the original source.
    let mut clean = phys_fn("q");
    push(&mut clean, Inst::MovI { dst: r0, imm: 0 }, SpillTag::None);
    push(&mut clean, Inst::Mov { dst: r1, src: r0 }, SpillTag::None);
    push(&mut clean, Inst::Mov { dst: r2, src: r0 }, SpillTag::None);
    ret(&mut clean);
    let r = lint_quality_function(&clean, &sp);
    assert_eq!(r.count(LintCode::MoveChain), 0, "{}", r.render_human());
}

#[test]
fn q105_low_pressure_spill() {
    // Two integer registers on the machine; the firing block keeps only one
    // alive while holding spill code, the clean twin drives pressure to K.
    let sp = MachineSpec::small(2, 1);
    let r0: Reg = PhysReg::int(0).into();
    let r1: Reg = PhysReg::int(1).into();

    let mut firing = phys_fn("q");
    let t = firing.new_temp(RegClass::Int, None);
    firing.slot_for(t);
    push(&mut firing, Inst::MovI { dst: r0, imm: 1 }, SpillTag::None);
    push(&mut firing, Inst::SpillStore { src: r0, temp: t }, SpillTag::EvictStore);
    push(&mut firing, Inst::SpillLoad { dst: r0, temp: t }, SpillTag::EvictLoad);
    ret(&mut firing);
    let r = lint_quality_function(&firing, &sp);
    assert_eq!(r.count(LintCode::LowPressureSpill), 1, "{}", r.render_human());

    let mut clean = phys_fn("q");
    let t = clean.new_temp(RegClass::Int, None);
    clean.slot_for(t);
    push(&mut clean, Inst::MovI { dst: r0, imm: 1 }, SpillTag::None);
    push(&mut clean, Inst::MovI { dst: r1, imm: 2 }, SpillTag::None);
    push(&mut clean, Inst::SpillStore { src: r0, temp: t }, SpillTag::EvictStore);
    push(&mut clean, Inst::SpillLoad { dst: r0, temp: t }, SpillTag::EvictLoad);
    // Both registers feed the add, so pressure peaks at K = 2.
    push(&mut clean, Inst::Op { op: OpCode::Add, dst: r0, srcs: vec![r0, r1] }, SpillTag::None);
    ret(&mut clean);
    let r = lint_quality_function(&clean, &sp);
    assert_eq!(r.count(LintCode::LowPressureSpill), 0, "{}", r.render_human());
}

/// Allocates every golden workload with binpack (coalescing on by default)
/// for the paper machine: store suppression must leave no dead spill store
/// behind. (Redundant reloads and low-pressure spills are genuine — if
/// benign — advisory findings on some workloads, so only Q101 is pinned.)
#[test]
fn binpack_golden_workloads_have_no_dead_spill_stores() {
    let sp = spec();
    for w in second_chance_regalloc::workloads::all() {
        let mut m = (w.build)();
        BinpackAllocator::default().allocate_module(&mut m, &sp);
        let r = lint_quality(&m, &sp);
        assert_eq!(r.count(LintCode::DeadSpillStore), 0, "{}: {}", w.name, r.render_human());
    }
}

/// Corrupting a store-suppression decision — inserting a spill store that
/// the consistency bit would have suppressed — must make Q101 fire on
/// otherwise-clean binpack output.
#[test]
fn corrupted_store_suppression_is_caught() {
    let sp = spec();
    let mut m = (second_chance_regalloc::workloads::by_name("fpppp").unwrap().build)();
    BinpackAllocator::default().allocate_module(&mut m, &sp);
    assert_eq!(lint_quality(&m, &sp).count(LintCode::DeadSpillStore), 0);

    // Find a function with a spilled temp and append a redundant store of
    // it right before a Ret: nothing can reload it, so the store is dead.
    let mut corrupted = 0;
    for f in &mut m.funcs {
        let Some(t) = f.spill_slots.iter().enumerate().find_map(|(i, s)| s.map(|_| Temp(i as u32)))
        else {
            continue;
        };
        let class = f.temp_class(t);
        let src: Reg = match class {
            RegClass::Int => PhysReg::int(0).into(),
            RegClass::Float => PhysReg::float(0).into(),
        };
        for b in &mut f.blocks {
            let last = b.insts.len() - 1;
            if matches!(b.insts[last].inst, Inst::Ret { .. }) {
                b.insts.insert(
                    last,
                    Ins { inst: Inst::SpillStore { src, temp: t }, tag: SpillTag::ResolveStore },
                );
                corrupted += 1;
                break;
            }
        }
        if corrupted > 0 {
            break;
        }
    }
    assert!(corrupted > 0, "fpppp should have a spilled temp and a returning block");
    let r = lint_quality(&m, &sp);
    assert!(r.count(LintCode::DeadSpillStore) >= 1, "{}", r.render_human());
}

/// The postopt identity-move pass must clear every Q103 diagnostic.
#[test]
fn postopt_clears_identity_move_diagnostics() {
    let sp = spec();
    let mut m = (second_chance_regalloc::workloads::by_name("fpppp").unwrap().build)();
    BinpackAllocator::default().allocate_module(&mut m, &sp);
    assert!(
        lint_quality(&m, &sp).count(LintCode::IdentityMove) > 0,
        "fpppp under binpack is expected to leave identity moves pre-postopt"
    );
    for id in m.func_ids().collect::<Vec<_>>() {
        remove_identity_moves(m.func_mut(id));
    }
    let r = lint_quality(&m, &sp);
    assert_eq!(r.count(LintCode::IdentityMove), 0, "{}", r.render_human());
}

/// JSONL renderings are byte-identical across repeated runs and across
/// module-allocation worker counts.
#[test]
fn lint_jsonl_is_deterministic_across_runs_and_workers() {
    let sp = spec();
    let original = (second_chance_regalloc::workloads::by_name("fpppp").unwrap().build)();
    let render = |workers: usize| {
        let mut m = original.clone();
        BinpackAllocator::new(BinpackConfig { workers, ..BinpackConfig::default() })
            .allocate_module(&mut m, &sp);
        lint_quality(&m, &sp).render_jsonl()
    };
    let serial = render(1);
    assert!(!serial.is_empty());
    for line in serial.lines() {
        second_chance_regalloc::trace::json::validate(line).expect(line);
    }
    assert_eq!(serial, render(1), "repeated runs must render identically");
    assert_eq!(serial, render(4), "worker count must not change the diagnostics");
}

/// Fixed rule-breaking corruptions of `m`, each in its last function (or,
/// for the entry, the module): every one breaks exactly one IR rule.
fn rule_corruptions(m: &Module) -> Vec<(&'static str, Module)> {
    let fi = m.funcs.len() - 1;
    let f = &m.funcs[fi];
    let bi = f.blocks.len() / 2;
    let first = |pick: &dyn Fn(&Inst) -> bool| {
        f.block_ids()
            .flat_map(|b| (0..f.block(b).insts.len()).map(move |i| (b.index(), i)))
            .find(|&(b, i)| pick(&f.blocks[b].insts[i].inst))
    };
    let mut out = Vec::new();
    let mut edit = |label, change: &dyn Fn(&mut Function)| {
        let mut c = m.clone();
        change(&mut c.funcs[fi]);
        out.push((label, c));
    };
    edit("drop a terminator", &|f| drop(f.blocks[bi].insts.pop()));
    edit("interior ret", &|f| {
        f.blocks[bi].insts.insert(0, Ins::new(Inst::Ret { ret_regs: vec![] }))
    });
    let call = Inst::Call { callee: Callee::Func(FuncId(99)), arg_regs: vec![], ret_regs: vec![] };
    edit("call @99", &|f| f.blocks[bi].insts.insert(0, Ins::new(call.clone())));
    if let Some((b, i)) = first(&|inst| matches!(inst, Inst::Jump { .. } | Inst::Branch { .. })) {
        edit("jump past the last block", &|f| {
            let past = BlockId(f.blocks.len() as u32);
            match &mut f.blocks[b].insts[i].inst {
                Inst::Jump { target } | Inst::Branch { then_tgt: target, .. } => *target = past,
                _ => unreachable!(),
            }
        });
    }
    if let Some((b, i)) = first(&|inst| matches!(inst, Inst::MovI { dst: Reg::Temp(_), .. })) {
        edit("float MovI", &|f| {
            let x = f.new_temp(RegClass::Float, None);
            if let Inst::MovI { dst, .. } = &mut f.blocks[b].insts[i].inst {
                *dst = x.into();
            }
        });
    }
    if let Some((b, i)) = first(&|inst| matches!(inst, Inst::Op { .. })) {
        edit("short Op", &|f| {
            if let Inst::Op { srcs, .. } = &mut f.blocks[b].insts[i].inst {
                srcs.pop();
            }
        });
        edit("temp past temps", &|f| {
            let past = Temp(f.temps.len() as u32);
            if let Inst::Op { dst, .. } = &mut f.blocks[b].insts[i].inst {
                *dst = past.into();
            }
        });
    }
    let mut c = m.clone();
    c.entry = FuncId(99);
    out.push(("missing entry", c));
    out
}

/// `Module::validate` and the input lint share one rule walk: on fixed
/// corruptions of every workload, `validate` fails exactly when the lint
/// reports an L003/L005/L006, its error sits where the first such finding
/// does, and neither panics.
#[test]
fn validate_and_the_input_lint_agree_on_every_rule() {
    use second_chance_regalloc::lint::lint_input;
    let is_rule = |c: LintCode| {
        matches!(c, LintCode::BadBlockTarget | LintCode::ClassMismatch | LintCode::MalformedBlock)
    };
    let mut cases = 0;
    for w in second_chance_regalloc::workloads::all() {
        let clean = (w.build)();
        let corrupted = rule_corruptions(&clean);
        assert_eq!(corrupted.len(), 8, "{}: every corruption applies", w.name);
        for (label, m) in std::iter::once(("clean", clean)).chain(corrupted) {
            let case = format!("{} / {label}", w.name);
            let verdict = m.validate();
            let report = lint_input(&m, None);
            assert_eq!(verdict.is_err(), label != "clean", "{case}: {verdict:?}");
            // Findings without a block or instruction point at 0, as
            // `ValidateError` does; `<module>` comes after every function.
            let func = |name: &str| m.funcs.iter().position(|f| f.name == name);
            let first = report.diags.iter().filter(|d| is_rule(d.code)).min_by_key(|d| {
                (func(&d.func).unwrap_or(usize::MAX), d.block.unwrap_or(BlockId(0)), d.inst)
            });
            match (verdict, first) {
                (Ok(()), None) => {}
                (Err(e), Some(d)) => {
                    let at = (d.func.as_str(), d.block.unwrap_or(BlockId(0)), d.inst.unwrap_or(0));
                    assert_eq!(at, (e.func.as_str(), e.block, e.inst), "{case}: {e}");
                    assert_eq!(d.message, e.msg, "{case}");
                }
                (v, d) => panic!("{case}: validate {v:?}, lint {d:?}"),
            }
            cases += 1;
        }
    }
    assert_eq!(cases, 11 * 9);
}

/// The same agreement through the text parser: the syntax-only parse
/// reaches the lint, which names the line `parse_module` refuses.
#[test]
fn text_input_reaches_the_rule_lints_at_the_parse_error_line() {
    use second_chance_regalloc::ir::{parse_module, parse_module_syntax};
    use second_chance_regalloc::lint::lint_input;
    let text = (second_chance_regalloc::workloads::by_name("wc").unwrap().build)().to_string();
    let jump = text.find("jmp b").expect("wc has a jump");
    let end = jump + text[jump..].find('\n').unwrap();
    let broken = format!("{}jmp b999{}", &text[..jump], &text[end..]);
    let e = parse_module(&broken).unwrap_err();
    let (m, lines) = parse_module_syntax(&broken).unwrap();
    let report = lint_input(&m, Some(&lines));
    assert_eq!(report.count(LintCode::BadBlockTarget), 1, "{}", report.render_human());
    let d = report.diags.iter().find(|d| d.code == LintCode::BadBlockTarget).unwrap();
    assert_eq!(d.line, Some(e.line), "{e}");
    assert!(e.msg.ends_with(&d.message), "{e} vs {}", d.message);
    assert_eq!(d.message, "jump to unknown block b999");
}

/// A module whose `main` breaks two IR rules: `t1` is a float written by an
/// integer add (line 7), and `b7` does not exist (line 8).
const RULES_PROGRAM: &str = "module m (0 words data)\nentry @0\nfunc @main() {\n  temps t0:i t1:f\nb0:\n  t0 = 1\n  t1 = add t0, t0\n  jmp b7\n}\n";

mod cli {
    use std::process::Command;

    use super::RULES_PROGRAM;

    fn lsra() -> Command {
        Command::new(env!("CARGO_BIN_EXE_lsra"))
    }

    fn write_temp(name: &str, text: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, text).unwrap();
        path
    }

    /// A malformed program reports the offending line through `lsra alloc`.
    #[test]
    fn alloc_reports_the_offending_parse_line() {
        let path = write_temp(
            "lsra_lint_subsystem_bad_parse.lsra",
            "module m (0 words data)\nentry @0\nfunc @f() {\nb0:\n  t0 = frobnicate t1\n  ret\n}\n",
        );
        let out = lsra().args(["alloc", path.to_str().unwrap()]).output().unwrap();
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("line 5"), "{stderr}");
        assert!(stderr.contains("frobnicate"), "{stderr}");
    }

    /// `lsra lint` points use-before-def at its source line and `--deny`
    /// turns the diagnostic into a nonzero exit.
    #[test]
    fn lint_denies_use_before_def_with_the_source_line() {
        let path = write_temp(
            "lsra_lint_subsystem_ubd.lsra",
            "module m (0 words data)\nentry @0\nfunc @f() {\n  temps t0:i t1:i\nb0:\n  t1 = add t0, t0\n  ret\n}\n",
        );
        let out = lsra()
            .args(["lint", path.to_str().unwrap(), "--deny", "L001", "--format", "json"])
            .output()
            .unwrap();
        assert!(!out.status.success(), "--deny L001 must fail the run");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(r#""code": "L001""#), "{stdout}");
        assert!(stdout.contains(r#""line": 6"#), "{stdout}");
        // Without --deny the same run succeeds (errors are still reported).
        let out = lsra().args(["lint", path.to_str().unwrap()]).output().unwrap();
        assert!(out.status.success());
        assert!(String::from_utf8_lossy(&out.stdout).contains("L001"));
    }

    /// Text reaches the rule lints: `lsra lint` reports a class mismatch
    /// (L005) and a jump to a missing block (L003) at their source lines
    /// instead of failing at the parse, `--deny L005` fails the run, and
    /// without `--deny` it exits 0.
    #[test]
    fn lint_reports_rule_findings_of_text_at_their_lines() {
        let path = write_temp("lsra_lint_subsystem_rules.lsra", RULES_PROGRAM);
        let out = lsra()
            .args(["lint", path.to_str().unwrap(), "--deny", "L005", "--format", "json"])
            .output()
            .unwrap();
        assert!(!out.status.success(), "--deny L005 must fail the run");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let lines: Vec<&str> = stdout.lines().collect();
        assert_eq!(lines.len(), 2, "{stdout}");
        assert!(lines[0].contains(r#""code": "L005""#) && lines[0].contains(r#""line": 7"#));
        assert!(lines[1].contains(r#""code": "L003""#) && lines[1].contains(r#""line": 8"#));
        let out = lsra().args(["lint", path.to_str().unwrap()]).output().unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("L005") && stdout.contains("L003"), "{stdout}");
        // `alloc` still refuses the program at the first rule it breaks.
        let out = lsra().args(["alloc", path.to_str().unwrap()]).output().unwrap();
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("line 7: in main, b0 inst 1: operand t1 must be class i"),
            "{stderr}"
        );
    }

    /// A clean workload passes `--deny` on the quality warnings, and the
    /// JSONL stream is byte-identical across runs and worker counts.
    #[test]
    fn lint_clean_workload_is_deny_clean_and_deterministic() {
        let run = |workers: &str| {
            let out = lsra()
                .args([
                    "lint",
                    "fpppp",
                    "--deny",
                    "Q101",
                    "--deny",
                    "Q102",
                    "--format",
                    "json",
                    "--workers",
                    workers,
                ])
                .output()
                .unwrap();
            assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
            String::from_utf8_lossy(&out.stdout).into_owned()
        };
        let first = run("1");
        assert_eq!(first, run("1"));
        assert_eq!(first, run("4"));
    }
}
