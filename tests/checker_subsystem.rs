//! End-to-end tests of the symbolic checker + fuzzing subsystem: the
//! checker must catch corrupted real allocator output in which every
//! register still holds some value, and the fuzz driver must be clean and
//! deterministic across every allocator and machine.

use second_chance_regalloc::checker;
use second_chance_regalloc::fuzz::{run_fuzz, FuzzConfig, ALLOCATOR_NAMES};
use second_chance_regalloc::ir::Ins;
use second_chance_regalloc::prelude::*;
use second_chance_regalloc::workloads::random::{RandomConfig, RandomProgram};

/// Swaps the `src` operands of two tagged register-to-register resolution
/// moves within one block of real binpack output. This is exactly the bug
/// class resolution code can introduce (emitting a parallel-move permutation
/// in the wrong order): both registers stay defined on every path, but reads
/// downstream see the wrong temporary's value — which the symbolic checker
/// must report.
#[test]
fn checker_catches_resolution_move_swap_in_real_allocator_output() {
    let spec = MachineSpec::small(6, 4);
    let mut caught = 0;
    for seed in 0..200u64 {
        let cfg = RandomConfig {
            blocks: 8,
            insts_per_block: 8,
            global_temps: 16,
            helpers: 0,
            call_percent: 0,
            fuel: 100,
            critical_edge_percent: 40,
            diamond_percent: 30,
            ..RandomConfig::default()
        };
        let original = RandomProgram::new(seed, cfg).build(&spec);
        let mut allocated = original.clone();
        BinpackAllocator::default().allocate_module(&mut allocated, &spec);
        assert!(checker::check_module(&original, &allocated, &spec).is_ok(), "seed {seed}");

        // Find two tagged reg-to-reg moves in one block whose operands are
        // four distinct registers, and cross their sources.
        let mut corrupted = allocated.clone();
        let mut found = false;
        'scan: for f in &mut corrupted.funcs {
            for b in &mut f.blocks {
                let movs: Vec<usize> = (0..b.insts.len())
                    .filter(|&i| {
                        b.insts[i].tag.is_spill()
                            && matches!(
                                b.insts[i].inst,
                                Inst::Mov { dst: Reg::Phys(_), src: Reg::Phys(_) }
                            )
                    })
                    .collect();
                for (x, &i) in movs.iter().enumerate() {
                    for &j in &movs[x + 1..] {
                        let (
                            Inst::Mov { dst: Reg::Phys(d1), src: Reg::Phys(s1) },
                            Inst::Mov { dst: Reg::Phys(d2), src: Reg::Phys(s2) },
                        ) = (b.insts[i].inst.clone(), b.insts[j].inst.clone())
                        else {
                            unreachable!()
                        };
                        let regs = [d1, s1, d2, s2];
                        let distinct = (0..4).all(|a| (a + 1..4).all(|c| regs[a] != regs[c]));
                        let same_class = regs.iter().all(|r| r.class == d1.class);
                        if !distinct || !same_class {
                            continue;
                        }
                        b.insts[i].inst = Inst::Mov { dst: d1.into(), src: s2.into() };
                        b.insts[j].inst = Inst::Mov { dst: d2.into(), src: s1.into() };
                        found = true;
                        break 'scan;
                    }
                }
            }
        }
        if !found {
            continue;
        }
        corrupted.validate().expect("corruption keeps the module structurally valid");
        assert!(
            checker::check_module(&original, &corrupted, &spec).is_err(),
            "seed {seed}: symbolic checker accepted a swapped resolution-move pair"
        );
        caught += 1;
    }
    assert!(caught >= 5, "too few corruption cases exercised (caught {caught})");
}

#[test]
fn fuzz_all_allocators_clean_on_default_machines() {
    let cfg = FuzzConfig { iters: 25, ..FuzzConfig::default() };
    assert_eq!(cfg.allocators, ALLOCATOR_NAMES.to_vec());
    let report = run_fuzz(&cfg);
    assert_eq!(report.cases, 25 * 3 * 5);
    assert!(
        report.ok(),
        "fuzzing found failures: {:?}",
        report.failures.iter().map(|f| (&f.allocator, &f.machine, &f.what)).collect::<Vec<_>>()
    );
}

#[test]
fn fuzz_is_deterministic_in_the_seed() {
    let cfg = FuzzConfig {
        iters: 4,
        seed: 0xD5EED,
        machines: vec![MachineSpec::small(4, 2)],
        ..FuzzConfig::default()
    };
    let a = run_fuzz(&cfg);
    let b = run_fuzz(&cfg);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

/// Which tagged instruction a corruption picks: the first, middle and last
/// of the `n` candidates (deduplicated).
fn picks(n: usize) -> Vec<usize> {
    let mut v = vec![0, n / 2, n.saturating_sub(1)];
    v.dedup();
    v.retain(|&k| k < n);
    v
}

/// Positions `(func, block, inst)` of every instruction matching `pred`, in
/// module order.
fn positions(m: &Module, pred: impl Fn(&Ins) -> bool) -> Vec<(usize, usize, usize)> {
    let mut out = Vec::new();
    for (fi, f) in m.funcs.iter().enumerate() {
        for (bi, b) in f.blocks.iter().enumerate() {
            for (ii, ins) in b.insts.iter().enumerate() {
                if pred(ins) {
                    out.push((fi, bi, ii));
                }
            }
        }
    }
    out
}

/// Every fixed corruption of one allocated module, labelled.
fn corruptions(m: &Module, spec: &MachineSpec) -> Vec<(String, Module)> {
    let mut out = Vec::new();
    for (label, store) in [("drop-store", true), ("drop-load", false)] {
        let at = positions(m, |ins| match ins.inst {
            Inst::SpillStore { .. } => ins.tag.is_spill() && store,
            Inst::SpillLoad { .. } => ins.tag.is_spill() && !store,
            _ => false,
        });
        for k in picks(at.len()) {
            let (fi, bi, ii) = at[k];
            let mut c = m.clone();
            c.funcs[fi].blocks[bi].insts.remove(ii);
            out.push((format!("{label} {k}"), c));
        }
    }

    // Cross the sources of two tagged reg-to-reg moves of one class in one
    // block (the k-th such pair in module order).
    let movs = positions(m, |ins| {
        ins.tag.is_spill() && matches!(ins.inst, Inst::Mov { dst: Reg::Phys(_), src: Reg::Phys(_) })
    });
    let mut pairs = Vec::new();
    for (x, &(fi, bi, i)) in movs.iter().enumerate() {
        for &(fj, bj, j) in &movs[x + 1..] {
            if (fi, bi) != (fj, bj) {
                continue;
            }
            let insts = &m.funcs[fi].blocks[bi].insts;
            let (Inst::Mov { src: Reg::Phys(s1), .. }, Inst::Mov { src: Reg::Phys(s2), .. }) =
                (&insts[i].inst, &insts[j].inst)
            else {
                unreachable!()
            };
            if s1.class == s2.class && s1 != s2 {
                pairs.push((fi, bi, i, j, *s1, *s2));
            }
        }
    }
    for k in picks(pairs.len()) {
        let (fi, bi, i, j, s1, s2) = pairs[k];
        let mut c = m.clone();
        let insts = &mut c.funcs[fi].blocks[bi].insts;
        for (at, src) in [(i, s2), (j, s1)] {
            if let Inst::Mov { src: s, .. } = &mut insts[at].inst {
                *s = src.into();
            }
        }
        out.push((format!("cross-moves {k}"), c));
    }

    // Retarget the first rewritable register use of the k-th instruction
    // that has one (call and return operands are fixed) to the next
    // register of its class.
    let users = positions(m, |ins| {
        let mut any = false;
        ins.inst.clone().for_each_use_mut(|r| any |= matches!(r, Reg::Phys(_)));
        any
    });
    for k in picks(users.len()) {
        let (fi, bi, ii) = users[k];
        let mut c = m.clone();
        let mut done = false;
        c.funcs[fi].blocks[bi].insts[ii].inst.for_each_use_mut(|r| {
            if let (false, Reg::Phys(p)) = (done, *r) {
                let n = spec.num_regs(p.class);
                *r = PhysReg::new(p.class, (p.index + 1) % n).into();
                done = true;
            }
        });
        out.push((format!("retarget-use {k}"), c));
    }
    out
}

/// Pins the symbolic checker's verdicts on fixed corruptions of every
/// workload's allocation, and the quality-lint report of every clean
/// allocation, as one digest. A refactor of the checker, the lints or the
/// dataflow solver behind them must leave every verdict and every
/// diagnostic unchanged.
#[test]
fn checker_and_lint_verdicts_are_pinned() {
    use second_chance_regalloc::fuzz::allocator_by_name;
    use second_chance_regalloc::lint::lint_quality;

    let mut text = String::new();
    for w in lsra_workloads::all() {
        let original = (w.build)();
        for alloc in ALLOCATOR_NAMES {
            for spec in [MachineSpec::alpha_like(), MachineSpec::small(6, 4)] {
                let mut allocated = original.clone();
                allocator_by_name(alloc, 1, false)
                    .expect("registered allocator")
                    .allocate_module(&mut allocated, &spec);
                text += &format!("== {} {alloc} {}\n", w.name, spec.name());
                text += &lint_quality(&allocated, &spec).render_human();
                let cases = std::iter::once(("clean".to_string(), allocated.clone()))
                    .chain(corruptions(&allocated, &spec));
                for (label, c) in cases {
                    text += &format!(
                        "{label}: symbolic {:?}\n",
                        checker::check_module(&original, &c, &spec)
                    );
                    // Per function too: the module verdict stops at the
                    // first failing function, and on the small machine
                    // that can be one built for the alpha call convention.
                    for (of, cf) in original.funcs.iter().zip(&c.funcs) {
                        text += &format!(
                            "  {}: {:?}\n",
                            cf.name,
                            checker::check_function(of, cf, &spec)
                        );
                    }
                }
            }
        }
    }
    assert_eq!(
        lsra_ir::fnv64(text.as_bytes()),
        0xb668_d181_ef2f_157b,
        "checker/lint verdict digest changed"
    );
}
