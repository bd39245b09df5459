//! Family A — input-IR validation lints (`L0xx`).
//!
//! These run *before* allocation on arbitrary (possibly hostile) input IR.
//! The IR rules live in one walk in `lsra_ir` ([`Module::for_each_finding`]),
//! whose first finding `validate` returns; this pass reports every finding
//! (`L006` malformed block, `L003` missing block, callee or entry, `L005`
//! operand) and adds what the rules leave to analysis: use-before-def,
//! unreachability, duplicate branch targets, and critical-edge advisories.
//!
//! Ordering matters: the CFG analyses ([`Cfg`], the must-dataflow) index
//! blocks through terminators, so they only run once the function's own
//! walk finds no malformed block and no missing block target.

use std::ops::ControlFlow;

use lsra_analysis::{is_critical, solve_forward_must, BitSet, Cfg};
use lsra_ir::{Finding, FindingKind, Function, FunctionLines, Inst, Module, ModuleLines, Reg};

use crate::{cfg_is_sound, Emitter, LintCode, LintReport};

/// Runs every Family A lint over one function (calls are not checked).
///
/// `lines` (from [`lsra_ir::parse_function_with_lines`]) lets diagnostics
/// carry source lines; pass `None` for programmatically built IR.
pub fn lint_input_function(f: &Function, lines: Option<&FunctionLines>) -> LintReport {
    let mut findings = Vec::new();
    let _ = f.for_each_finding(|x| {
        findings.push(x);
        ControlFlow::<()>::Continue(())
    });
    lint_function(f, lines, findings)
}

/// Runs every Family A lint over a module, function by function, then the
/// module's missing entry.
pub fn lint_input(m: &Module, lines: Option<&ModuleLines>) -> LintReport {
    let mut per_func: Vec<Vec<Finding<'_>>> = m.funcs.iter().map(|_| Vec::new()).collect();
    let mut module_rules = Vec::new();
    let _ = m.for_each_finding(|func, x| {
        match func {
            Some(i) => per_func[i].push(x),
            None => module_rules.push(x),
        }
        ControlFlow::<()>::Continue(())
    });
    let mut report = LintReport::new();
    for (i, (f, findings)) in m.funcs.iter().zip(per_func).enumerate() {
        report.merge(lint_function(f, lines.and_then(|l| l.funcs.get(i)), findings));
    }
    for x in module_rules {
        let mut em = Emitter { func: x.func, lines: None, diags: Vec::new() };
        emit_finding(&mut em, x);
        report.merge(LintReport { diags: em.diags });
    }
    report
}

/// The rule findings of one function as diagnostics, then the lints the
/// rules leave to analysis.
fn lint_function(
    f: &Function,
    lines: Option<&FunctionLines>,
    findings: Vec<Finding<'_>>,
) -> LintReport {
    let mut em = Emitter { func: &f.name, lines, diags: Vec::new() };
    for x in findings {
        emit_finding(&mut em, x);
    }
    duplicate_target_lint(f, &mut em);
    if cfg_is_sound(f) {
        cfg_lints(f, &mut em);
    }
    let mut report = LintReport { diags: em.diags };
    report.sort();
    report
}

fn emit_finding(em: &mut Emitter<'_>, x: Finding<'_>) {
    let code = match x.kind {
        FindingKind::MalformedBlock => LintCode::MalformedBlock,
        FindingKind::BadTarget => LintCode::BadBlockTarget,
        FindingKind::Operand => LintCode::ClassMismatch,
    };
    em.emit(code, x.block, x.inst, x.msg);
}

/// `L004`: both arms of a branch target the same block (should be a jump).
fn duplicate_target_lint(f: &Function, em: &mut Emitter<'_>) {
    for b in f.block_ids() {
        for (i, ins) in f.block(b).insts.iter().enumerate() {
            if let Inst::Branch { then_tgt, else_tgt, .. } = ins.inst {
                if then_tgt == else_tgt {
                    em.emit(
                        LintCode::DuplicateBranchTarget,
                        Some(b),
                        Some(i),
                        format!("both branch arms target {then_tgt} (should be a jump)"),
                    );
                }
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
