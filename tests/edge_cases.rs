//! Degenerate inputs every allocator must handle: empty bodies, single
//! blocks, pure-physical programs, zero live ranges, maximal-arity calls,
//! and pathological CFG shapes.

use second_chance_regalloc::prelude::*;

fn allocators() -> Vec<Box<dyn RegisterAllocator>> {
    vec![
        Box::new(BinpackAllocator::default()),
        Box::new(BinpackAllocator::two_pass()),
        Box::new(ColoringAllocator),
        Box::new(PolettoAllocator),
    ]
}

fn check(module: &Module, spec: &MachineSpec, input: &[u8]) {
    for alloc in allocators() {
        let mut m = module.clone();
        alloc.allocate_module(&mut m, spec);
        second_chance_regalloc::checker::check_module(module, &m, spec)
            .unwrap_or_else(|e| panic!("{}/{}: symbolic: {e}", module.name, alloc.name()));
        for id in m.func_ids().collect::<Vec<_>>() {
            lsra_analysis::remove_identity_moves(m.func_mut(id));
        }
        verify_allocation(module, &m, spec, input, VmOptions::default())
            .unwrap_or_else(|e| panic!("{}/{}: {e}", module.name, alloc.name()));
    }
}

fn single(f: Function) -> Module {
    let mut mb = ModuleBuilder::new("edge", 8);
    let id = mb.add(f);
    mb.entry(id);
    mb.finish()
}

#[test]
fn empty_function_body() {
    let spec = MachineSpec::alpha_like();
    let mut b = FunctionBuilder::new(&spec, "main", &[]);
    b.ret(None);
    check(&single(b.finish()), &spec, &[]);
}

#[test]
fn function_with_no_temporaries_only_phys() {
    let spec = MachineSpec::alpha_like();
    let mut b = FunctionBuilder::new(&spec, "main", &[]);
    let r0: Reg = spec.ret_reg(RegClass::Int).into();
    b.movi(r0, 99);
    b.emit(Inst::Ret { ret_regs: vec![spec.ret_reg(RegClass::Int)] });
    let m = single(b.finish());
    check(&m, &spec, &[]);
    assert_eq!(run_module(&m, &spec, &[]).unwrap().ret, Some(99));
}

#[test]
fn dead_definition_only() {
    let spec = MachineSpec::small(2, 2);
    let mut b = FunctionBuilder::new(&spec, "main", &[]);
    let x = b.int_temp("x");
    b.movi(x, 1); // never used
    b.ret(None);
    check(&single(b.finish()), &spec, &[]);
}

#[test]
fn maximal_call_arity() {
    // All six argument registers of both classes at once.
    let spec = MachineSpec::alpha_like();
    let mut mb = ModuleBuilder::new("edge", 0);
    let callee = {
        let classes = [
            RegClass::Int,
            RegClass::Int,
            RegClass::Int,
            RegClass::Float,
            RegClass::Float,
            RegClass::Float,
        ];
        let mut f = FunctionBuilder::new(&spec, "many", &classes);
        let s1 = f.int_temp("s1");
        f.add(s1, f.param(0), f.param(1));
        f.add(s1, s1, f.param(2));
        let fs = f.float_temp("fs");
        f.op2(OpCode::FAdd, fs, f.param(3), f.param(4));
        f.op2(OpCode::FAdd, fs, fs, f.param(5));
        let fi = f.int_temp("fi");
        f.op1(OpCode::FloatToInt, fi, fs);
        f.add(s1, s1, fi);
        f.ret(Some(s1.into()));
        mb.add(f.finish())
    };
    let mut b = FunctionBuilder::new(&spec, "main", &[]);
    let ints: Vec<Reg> = (0..3)
        .map(|i| {
            let t = b.int_temp(&format!("i{i}"));
            b.movi(t, 10 + i);
            t.into()
        })
        .collect();
    let floats: Vec<Reg> = (0..3)
        .map(|i| {
            let t = b.float_temp(&format!("f{i}"));
            b.movf(t, i as f64 + 0.5);
            t.into()
        })
        .collect();
    let args: Vec<Reg> = ints.into_iter().chain(floats).collect();
    let r = b.call_func(callee, &args, Some(RegClass::Int)).unwrap();
    b.ret(Some(r.into()));
    let main = mb.add(b.finish());
    mb.entry(main);
    let m = mb.finish();
    check(&m, &spec, &[]);
    // 10+11+12 + trunc(0.5+1.5+2.5) = 33 + 4
    assert_eq!(run_module(&m, &spec, &[]).unwrap().ret, Some(37));
}

#[test]
fn branch_with_identical_targets() {
    let spec = MachineSpec::small(3, 2);
    let mut b = FunctionBuilder::new(&spec, "main", &[]);
    let t = b.int_temp("t");
    b.movi(t, 1);
    let tgt = b.block();
    b.branch(Cond::Ne, t, tgt, tgt);
    b.switch_to(tgt);
    b.ret(Some(t.into()));
    check(&single(b.finish()), &spec, &[]);
}

#[test]
fn deep_linear_chain() {
    // 120 blocks in a row: exercises map bookkeeping at every boundary.
    let spec = MachineSpec::small(3, 2);
    let mut b = FunctionBuilder::new(&spec, "main", &[]);
    let acc = b.int_temp("acc");
    let aux = b.int_temp("aux");
    b.movi(acc, 0);
    b.movi(aux, 7);
    for i in 0..120 {
        let blk = b.block();
        // The builder is positioned at the previous block (or the entry on
        // the first iteration); chain it to the new block.
        b.jump(blk);
        b.switch_to(blk);
        let k = b.int_temp(&format!("k{i}"));
        b.movi(k, i);
        b.add(acc, acc, k);
    }
    b.add(acc, acc, aux);
    b.ret(Some(acc.into()));
    let m = single(b.finish());
    check(&m, &spec, &[]);
    assert_eq!(run_module(&m, &spec, &[]).unwrap().ret, Some((0..120).sum::<i64>() + 7));
}

#[test]
fn self_loop_block() {
    let spec = MachineSpec::small(3, 2);
    let mut b = FunctionBuilder::new(&spec, "main", &[]);
    let n = b.int_temp("n");
    b.movi(n, 40);
    let lp = b.block();
    let exit = b.block();
    b.jump(lp);
    b.switch_to(lp);
    b.addi(n, n, -1);
    b.branch(Cond::Gt, n, lp, exit);
    b.switch_to(exit);
    b.ret(Some(n.into()));
    let m = single(b.finish());
    check(&m, &spec, &[]);
    assert_eq!(run_module(&m, &spec, &[]).unwrap().ret, Some(0));
}

#[test]
fn unreachable_code_is_tolerated() {
    let spec = MachineSpec::small(3, 2);
    let mut b = FunctionBuilder::new(&spec, "main", &[]);
    let x = b.int_temp("x");
    b.movi(x, 5);
    b.ret(Some(x.into()));
    // Dead block referencing live-looking temps.
    let dead = b.block();
    b.switch_to(dead);
    let y = b.int_temp("y");
    b.add(y, x, x);
    b.ret(Some(y.into()));
    let m = single(b.finish());
    check(&m, &spec, &[]);
}

#[test]
fn float_only_function() {
    let spec = MachineSpec::small(2, 4);
    let mut b = FunctionBuilder::new(&spec, "main", &[]);
    let fs: Vec<_> = (0..7).map(|i| b.float_temp(&format!("f{i}"))).collect();
    for (i, &t) in fs.iter().enumerate() {
        b.movf(t, i as f64 + 0.25);
    }
    let acc = b.float_temp("acc");
    b.movf(acc, 0.0);
    for &t in &fs {
        b.op2(OpCode::FAdd, acc, acc, t);
    }
    let out = b.int_temp("out");
    b.op1(OpCode::FloatToInt, out, acc);
    b.ret(Some(out.into()));
    let m = single(b.finish());
    check(&m, &spec, &[]);
    // 0.25*7 + (0+...+6) = 1.75 + 21 -> 22
    assert_eq!(run_module(&m, &spec, &[]).unwrap().ret, Some(22));
}

#[test]
fn recursion_to_depth_limit_is_caught() {
    let spec = MachineSpec::alpha_like();
    let mut mb = ModuleBuilder::new("edge", 0);
    let selfid = mb.declare();
    let mut b = FunctionBuilder::new(&spec, "rec", &[RegClass::Int]);
    let x = b.param(0);
    let base = b.block();
    let rec = b.block();
    b.branch(Cond::Le, x, base, rec);
    b.switch_to(base);
    b.ret(Some(x.into()));
    b.switch_to(rec);
    let x1 = b.int_temp("x1");
    b.addi(x1, x, -1);
    let r = b.call_func(selfid, &[x1.into()], Some(RegClass::Int)).unwrap();
    b.ret(Some(r.into()));
    mb.define(selfid, b.finish());
    let mut main = FunctionBuilder::new(&spec, "main", &[]);
    let d = main.int_temp("d");
    main.movi(d, 500); // well within limits, deep enough to stress frames
    let r = main.call_func(selfid, &[d.into()], Some(RegClass::Int)).unwrap();
    main.ret(Some(r.into()));
    let id = mb.add(main.finish());
    mb.entry(id);
    let m = mb.finish();
    check(&m, &spec, &[]);
    assert_eq!(run_module(&m, &spec, &[]).unwrap().ret, Some(0));
}

/// A reader that stops early (`lsra alloc ... | head -1`) closes the pipe
/// under the CLI's output: the CLI ends quietly instead of panicking.
#[test]
fn cli_ends_quietly_on_a_closed_pipe() {
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_lsra"))
        .args(["alloc", "scale:medium:20000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap()).read_line(&mut first).unwrap();
    assert!(!first.is_empty(), "no output before the pipe closed");
    // The reader is dropped: the rest of the output meets a closed pipe.
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
