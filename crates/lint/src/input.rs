//! Family A — input-IR validation lints (`L0xx`).
//!
//! These run *before* allocation on arbitrary (possibly hostile) input IR.
//! [`lsra_ir::Function::validate`] stops at the first structural error; this
//! pass keeps going, collects every finding, and adds the properties the
//! validator deliberately leaves to dataflow analysis: use-before-def,
//! unreachability, and critical-edge advisories.
//!
//! Ordering matters: the CFG analyses ([`Order`], predecessor lists, the
//! must-dataflow) index blocks through terminators, so they only run once
//! the structural lints (`L003`, `L006`) report the function clean. A
//! structurally broken function still gets its full set of structural and
//! per-instruction class diagnostics.

use lsra_analysis::{is_critical, solve_forward_must, BitSet, Cfg};
use lsra_ir::{Function, FunctionLines, Inst, Module, ModuleLines, Reg, RegClass};

use crate::{class_of, Emitter, LintCode, LintReport};

/// Runs every Family A lint over one function.
///
/// `lines` (from [`lsra_ir::parse_function_with_lines`]) lets diagnostics
/// carry source lines; pass `None` for programmatically built IR.
pub fn lint_input_function(f: &Function, lines: Option<&FunctionLines>) -> LintReport {
    let mut em = Emitter { func: &f.name, lines, diags: Vec::new() };
    if f.blocks.is_empty() {
        em.emit(LintCode::MalformedBlock, None, None, "function has no blocks".to_string());
        return LintReport { diags: em.diags };
    }

    // Structural pass: every CFG lint below depends on well-formed blocks
    // (terminators exist) and in-range targets (successor lists index the
    // block table).
    let mut structural_ok = true;
    for b in f.block_ids() {
        let blk = f.block(b);
        if blk.insts.is_empty() {
            em.emit(LintCode::MalformedBlock, Some(b), None, "empty block".to_string());
            structural_ok = false;
            continue;
        }
        let last = blk.insts.len() - 1;
        for (i, ins) in blk.insts.iter().enumerate() {
            if i < last && ins.inst.is_terminator() {
                em.emit(
                    LintCode::MalformedBlock,
                    Some(b),
                    Some(i),
                    "terminator in the middle of a block".to_string(),
                );
                structural_ok = false;
            }
        }
        if !blk.insts[last].inst.is_terminator() {
            em.emit(
                LintCode::MalformedBlock,
                Some(b),
                Some(last),
                "block does not end in a terminator".to_string(),
            );
            structural_ok = false;
        }
        for (i, ins) in blk.insts.iter().enumerate() {
            match &ins.inst {
                Inst::Jump { target } if target.index() >= f.num_blocks() => {
                    em.emit(
                        LintCode::BadBlockTarget,
                        Some(b),
                        Some(i),
                        format!("jump to undefined block {target}"),
                    );
                    structural_ok = false;
                }
                Inst::Branch { then_tgt, else_tgt, .. } => {
                    for t in [then_tgt, else_tgt] {
                        if t.index() >= f.num_blocks() {
                            em.emit(
                                LintCode::BadBlockTarget,
                                Some(b),
                                Some(i),
                                format!("branch to undefined block {t}"),
                            );
                            structural_ok = false;
                        }
                    }
                    if then_tgt == else_tgt {
                        em.emit(
                            LintCode::DuplicateBranchTarget,
                            Some(b),
                            Some(i),
                            format!("both branch arms target {then_tgt} (should be a jump)"),
                        );
                    }
                }
                _ => {}
            }
        }
    }

    class_lints(f, &mut em);

    if structural_ok {
        cfg_lints(f, &mut em);
    }

    let mut report = LintReport { diags: em.diags };
    report.sort();
    report
}

/// Runs every Family A lint over a module, function by function.
pub fn lint_input(m: &Module, lines: Option<&ModuleLines>) -> LintReport {
    let mut report = LintReport::new();
    for (i, f) in m.funcs.iter().enumerate() {
        let fl = lines.and_then(|l| l.funcs.get(i));
        report.merge(lint_input_function(f, fl));
    }
    report
}

/// `L005`: per-instruction register-class and shape checks. Mirrors
/// `Function::validate`'s class rules but reports *all* findings instead of
/// stopping at the first, and never panics on out-of-range temps.
fn class_lints(f: &Function, em: &mut Emitter<'_>) {
    fn check(f: &Function, bad: &mut Vec<String>, r: Reg, want: Option<RegClass>) {
        match class_of(f, r) {
            None => bad.push(format!("reference to undeclared temp {r}")),
            Some(c) => {
                if let Some(w) = want {
                    if c != w {
                        bad.push(format!("operand {r} must be class {w}"));
                    }
                }
            }
        }
    }
    for b in f.block_ids() {
        for (i, ins) in f.block(b).insts.iter().enumerate() {
            let mut bad: Vec<String> = Vec::new();
            match &ins.inst {
                Inst::Op { op, dst, srcs } => {
                    if srcs.len() != op.arity() {
                        bad.push(format!(
                            "{} expects {} sources, got {}",
                            op.mnemonic(),
                            op.arity(),
                            srcs.len()
                        ));
                    }
                    let (sc, dc) = op.sig();
                    for &s in srcs {
                        check(f, &mut bad, s, Some(sc));
                    }
                    check(f, &mut bad, *dst, Some(dc));
                }
                Inst::MovI { dst, .. } => check(f, &mut bad, *dst, Some(RegClass::Int)),
                Inst::MovF { dst, .. } => check(f, &mut bad, *dst, Some(RegClass::Float)),
                Inst::Mov { dst, src } => {
                    let (dc, sc) = (class_of(f, *dst), class_of(f, *src));
                    check(f, &mut bad, *src, None);
                    check(f, &mut bad, *dst, None);
                    if let (Some(dc), Some(sc)) = (dc, sc) {
                        if dc != sc {
                            bad.push("move between register classes".to_string());
                        }
                    }
                }
                Inst::Load { dst, base, .. } => {
                    check(f, &mut bad, *base, Some(RegClass::Int));
                    check(f, &mut bad, *dst, None);
                }
                Inst::Store { src, base, .. } => {
                    check(f, &mut bad, *base, Some(RegClass::Int));
                    check(f, &mut bad, *src, None);
                }
                Inst::SpillLoad { dst, temp } => {
                    if temp.index() >= f.num_temps() {
                        bad.push(format!("reference to undeclared temp {temp}"));
                    } else {
                        check(f, &mut bad, *dst, Some(f.temp_class(*temp)));
                    }
                }
                Inst::SpillStore { src, temp } => {
                    if temp.index() >= f.num_temps() {
                        bad.push(format!("reference to undeclared temp {temp}"));
                    } else {
                        check(f, &mut bad, *src, Some(f.temp_class(*temp)));
                    }
                }
                Inst::Branch { src, .. } => check(f, &mut bad, *src, Some(RegClass::Int)),
                Inst::Call { .. } | Inst::Jump { .. } | Inst::Ret { .. } => {}
            }
            for msg in bad {
                em.emit(LintCode::ClassMismatch, Some(b), Some(i), msg);
            }
        }
    }
}

/// The CFG-dependent lints: `L002` unreachable blocks, `L007` critical
/// edges, and `L001` use-before-def as a forward must-dataflow (a temp is
/// soundly defined at a use only if a definition reaches it along *every*
/// path from the entry).
fn cfg_lints(f: &Function, em: &mut Emitter<'_>) {
    let cfg = Cfg::compute(f);
    for b in f.block_ids() {
        if !cfg.is_reachable(b) {
            em.emit(
                LintCode::UnreachableBlock,
                Some(b),
                None,
                "unreachable from the entry block".to_string(),
            );
        }
    }

    for &b in &cfg.rpo {
        let term = f.block(b).insts.len() - 1;
        for &s in cfg.succs(b) {
            if is_critical(&cfg, b, s) {
                em.emit(
                    LintCode::CriticalEdge,
                    Some(b),
                    Some(term),
                    format!("critical edge {b} -> {s} (the resolution pass will split it)"),
                );
            }
        }
    }

    // Use-before-def. Block-level: gen = temps defined in the block, no
    // kills; entry facts are the parameters (defined by the convention).
    let nt = f.num_temps();
    if nt == 0 {
        return;
    }
    let mut gen = vec![BitSet::new(nt); f.num_blocks()];
    for b in f.block_ids() {
        for ins in &f.block(b).insts {
            ins.inst.for_each_def(|r| {
                if let Reg::Temp(t) = r {
                    if t.index() < nt {
                        gen[b.index()].insert(t.index());
                    }
                }
            });
        }
    }
    let kill = vec![BitSet::new(nt); f.num_blocks()];
    let mut entry_in = BitSet::new(nt);
    for t in &f.params {
        if t.index() < nt {
            entry_in.insert(t.index());
        }
    }
    let sol = solve_forward_must(&cfg, nt, &gen, &kill, &entry_in);

    // Reporting walk: re-run the per-instruction transfer with the block
    // in-sets, flagging each temp once (at its first dubious use in RPO).
    let mut reported = BitSet::new(nt);
    for &b in &cfg.rpo {
        let mut defined = sol.must_in[b.index()].clone();
        for (i, ins) in f.block(b).insts.iter().enumerate() {
            ins.inst.for_each_use(|r| {
                if let Reg::Temp(t) = r {
                    if t.index() < nt && !defined.contains(t.index()) && reported.insert(t.index())
                    {
                        em.emit(
                            LintCode::UseBeforeDef,
                            Some(b),
                            Some(i),
                            format!("{t} is read before any definition reaches it on some path"),
                        );
                    }
                }
            });
            ins.inst.for_each_def(|r| {
                if let Reg::Temp(t) = r {
                    if t.index() < nt {
                        defined.insert(t.index());
                    }
                }
            });
        }
    }
}
