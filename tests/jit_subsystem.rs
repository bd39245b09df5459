//! Native JIT subsystem: the x86-64 backend must be observationally
//! indistinguishable from the VM.
//!
//! The heavyweight check is the differential sweep: every built-in workload
//! × every allocator × two machines, executed both interpreted and native,
//! comparing the **entire** `RunResult` — return value, output events,
//! final-memory checksum, and every `DynCounts` field. Equality of the
//! dynamic counts is what makes native timing numbers comparable with the
//! paper-style spill accounting the VM produces.
//!
//! Alongside it: byte-level encoder checks against hand-assembled x86-64,
//! and a frame-layout test that forces more than eight live spill slots per
//! register class (deep frames exercise the disp32 addressing paths).
//!
//! On hosts that cannot map executable memory the execution half of each
//! test is skipped — counted and announced, not silent — and the static
//! machine-code verifier runs in its place: the compiled image must still
//! decode cleanly and prove out against the allocated IR, so noexec CI
//! keeps asserting something real about the backend.

use std::sync::atomic::{AtomicUsize, Ordering};

use second_chance_regalloc::allocate_and_cleanup;
use second_chance_regalloc::jit;
use second_chance_regalloc::prelude::*;
use second_chance_regalloc::server::protocol::{allocator_by_name, ALLOCATOR_NAMES};
use second_chance_regalloc::verify;

/// The same two machines the golden-digest pins cover.
fn machines() -> [(&'static str, MachineSpec); 2] {
    [("alpha", MachineSpec::alpha_like()), ("small", MachineSpec::small(6, 4))]
}

static EXECUTION_SKIPS: AtomicUsize = AtomicUsize::new(0);

/// True when the host cannot run JIT-compiled code. Each skip is counted
/// and announced; the caller must fall back to [`verify_statically`] so
/// the test still asserts something on noexec hosts.
fn skip_execution(test: &str) -> bool {
    if jit::jit_supported() {
        return false;
    }
    let n = EXECUTION_SKIPS.fetch_add(1, Ordering::Relaxed) + 1;
    eprintln!(
        "skipping execution for {test} (skip #{n} in this suite): cannot map \
         executable code on this host; running the static verifier instead"
    );
    true
}

/// The noexec stand-in for running the code: compile it and prove the
/// machine code against the allocated IR with the static verifier.
fn verify_statically(case: &str, m: &lsra_ir::Module, spec: &MachineSpec) {
    let code =
        jit::compile_module(m, spec).unwrap_or_else(|e| panic!("{case}: compile failed: {e}"));
    let report = verify::verify_module(m, spec, &code);
    assert!(
        report.diags.is_empty(),
        "{case}: static verification found {} diagnostic(s):\n{}",
        report.diags.len(),
        report.render_human()
    );
}

#[test]
fn native_matches_vm_across_workloads_allocators_machines() {
    let execute = !skip_execution("native differential sweep");
    for w in lsra_workloads::all() {
        let original = (w.build)();
        let input = (w.input)();
        for (mname, spec) in machines() {
            for aname in ALLOCATOR_NAMES {
                let case = format!("{} / {aname} / {mname}", w.name);
                let alloc = allocator_by_name(aname, 1, false).unwrap();
                let mut m = original.clone();
                allocate_and_cleanup(&mut m, alloc.as_ref(), &spec);
                if !execute {
                    verify_statically(&case, &m, &spec);
                    continue;
                }
                let vm = Vm::new(&m, &spec, &input, VmOptions::default())
                    .run()
                    .unwrap_or_else(|e| panic!("{case}: vm run faulted: {e}"));
                let code = jit::compile_module(&m, &spec)
                    .unwrap_or_else(|e| panic!("{case}: compile failed: {e}"));
                let native = code
                    .run(&input, &VmOptions::default())
                    .unwrap_or_else(|e| panic!("{case}: native run faulted: {e}"));
                assert_eq!(native.ret, vm.ret, "{case}: native return value disagrees with the VM");
                assert_eq!(native.output, vm.output, "{case}: output events disagree");
                assert_eq!(
                    native.memory_checksum, vm.memory_checksum,
                    "{case}: final-memory checksum disagrees"
                );
                assert_eq!(native.counts, vm.counts, "{case}: dynamic counts disagree");
            }
        }
    }
}

/// Faults must map to the interpreter's error values, not just success.
#[test]
fn native_faults_match_vm_faults() {
    let execute = !skip_execution("native fault parity");
    let spec = MachineSpec::alpha_like();
    // Division by zero: r0 = 1 / (r1 = 0).
    let text = "\
module div0 (0 words data)
func @main() {
b0:
  r0 = 1
  r1 = 0
  r0 = div r0, r1
  ret r0
}
";
    let m = lsra_ir::parse_module(text).expect("parse");
    if !execute {
        // The div-by-zero diamond and its fault stub still have to prove
        // out statically.
        verify_statically("native fault parity", &m, &spec);
        return;
    }
    let vm_err = Vm::new(&m, &spec, &[], VmOptions::default()).run().unwrap_err();
    let code = jit::compile_module(&m, &spec).expect("compile");
    match code.run(&[], &VmOptions::default()) {
        Err(jit::JitRunError::Vm(native_err)) => assert_eq!(native_err, vm_err),
        other => panic!("expected a Vm fault, got {other:?}"),
    }
}

#[test]
fn encoder_emits_reference_byte_patterns() {
    use jit::encoder::{Asm, RBP, RSP};
    // Hand-assembled reference: the standard prologue pair plus ret.
    //   push rbp        55
    //   mov  rbp, rsp   48 89 E5
    //   leave           C9
    //   ret             C3
    let mut a = Asm::new();
    a.push_r(RBP);
    a.mov_rr(RBP, RSP);
    a.leave();
    a.ret();
    assert_eq!(a.finish(), vec![0x55, 0x48, 0x89, 0xE5, 0xC9, 0xC3]);
}

#[test]
fn encoder_labels_patch_forward_references() {
    use jit::encoder::{Asm, Cc, RAX};
    let mut a = Asm::new();
    let l = a.label();
    a.test_rr(RAX, RAX);
    a.jcc(Cc::E, l); // forward: rel32 unknown at emission
    a.zero_r(RAX);
    a.bind(l);
    a.ret();
    let code = a.finish();
    assert_eq!(*code.last().unwrap(), 0xC3);
    // test rax,rax = 48 85 C0; jz rel32 = 0F 84 xx xx xx xx. The patched
    // displacement must reach exactly the ret (2 bytes past the jcc end:
    // xor eax,eax is 31 C0).
    assert_eq!(&code[..5], &[0x48, 0x85, 0xC0, 0x0F, 0x84]);
    let rel = i32::from_le_bytes(code[5..9].try_into().unwrap());
    assert_eq!(rel, 2);
}

/// More than eight live spill slots in *each* class: every slot holds a
/// distinct value across a call-free region, then everything is reloaded
/// and combined. With 12 int + 12 float slots the frame offsets run well
/// past the byte-displacement range, pinning the disp32 frame layout.
#[test]
fn frame_layout_holds_many_live_spill_slots_per_class() {
    let execute = !skip_execution("deep-frame test");
    use lsra_ir::{FunctionBuilder, Inst, OpCode, PhysReg, Reg};
    const N: usize = 12;
    let spec = MachineSpec::alpha_like();
    let r0: Reg = PhysReg::int(0).into();
    let r1: Reg = PhysReg::int(1).into();
    let f0: Reg = PhysReg::float(0).into();
    let f1: Reg = PhysReg::float(1).into();
    let mut b = FunctionBuilder::new(&spec, "deep", &[]);
    let int_temps: Vec<_> = (0..N).map(|i| b.int_temp(&format!("si{i}"))).collect();
    let float_temps: Vec<_> = (0..N).map(|i| b.float_temp(&format!("sf{i}"))).collect();
    // Fill all 24 slots first — every slot is live until the read-back.
    for (i, &t) in int_temps.iter().enumerate() {
        b.movi(r0, (i as i64 + 1) * 1_000_003);
        b.emit(Inst::SpillStore { src: r0, temp: t });
    }
    for (i, &t) in float_temps.iter().enumerate() {
        b.movf(f0, (i as f64 + 1.0) * 0.5);
        b.emit(Inst::SpillStore { src: f0, temp: t });
    }
    // Read everything back: sum the ints, sum the floats, combine.
    b.movi(r0, 0);
    for &t in &int_temps {
        b.emit(Inst::SpillLoad { dst: r1, temp: t });
        b.op2(OpCode::Add, r0, r0, r1);
    }
    b.movf(f0, 0.0);
    for &t in &float_temps {
        b.emit(Inst::SpillLoad { dst: f1, temp: t });
        b.op2(OpCode::FAdd, f0, f0, f1);
    }
    b.op1(OpCode::FloatToInt, r1, f0);
    b.op2(OpCode::Add, r0, r0, r1);
    b.emit(Inst::Ret { ret_regs: vec![PhysReg::int(0)] });
    let mut f = b.finish();
    for &t in int_temps.iter().chain(&float_temps) {
        f.slot_for(t);
    }
    f.allocated = true;
    assert!(f.num_slots as usize >= 2 * N);

    let mut module = lsra_ir::Module::new("deep-frame", 0);
    module.entry = module.add_func(f);
    if !execute {
        // The disp32 spill-slot addressing still has to prove out
        // statically against the deep frame layout.
        verify_statically("deep-frame test", &module, &spec);
        return;
    }
    let vm = Vm::new(&module, &spec, &[], VmOptions::default()).run().expect("vm");
    let code = jit::compile_module(&module, &spec).expect("compile");
    let native = code.run(&[], &VmOptions::default()).expect("native");
    assert_eq!(native, vm);
    // ints: 1e6ish * (1+..+12); floats: 0.5 * 78 = 39.
    let int_sum: i64 = (1..=N as i64).map(|i| i * 1_000_003).sum();
    assert_eq!(native.ret, Some(int_sum + 39));
}

/// `LSRA_JIT_DISABLE` forces the unsupported path; `compile_module` still
/// works (pure byte generation) but `map` must refuse with `Unsupported`.
#[test]
fn disable_env_var_gates_mapping_not_compilation() {
    // Spawn a child so the env var is set before the OnceLock probe runs.
    let exe = std::env::current_exe().expect("test exe");
    let out = std::process::Command::new(exe)
        .args(["disable_env_probe_child", "--exact", "--ignored", "--nocapture"])
        .env("LSRA_JIT_DISABLE", "1")
        .output()
        .expect("spawn child test");
    assert!(out.status.success(), "child probe failed:\n{}", String::from_utf8_lossy(&out.stderr));
}

/// Runs only as a child of `disable_env_var_gates_mapping_not_compilation`.
#[test]
#[ignore = "child process of disable_env_var_gates_mapping_not_compilation"]
fn disable_env_probe_child() {
    assert!(!jit::jit_supported(), "LSRA_JIT_DISABLE must force unsupported");
    let spec = MachineSpec::alpha_like();
    let m = lsra_ir::parse_module(
        "module probe (0 words data)\nfunc @main() {\nb0:\n  r0 = 7\n  ret r0\n}\n",
    )
    .unwrap();
    let code = jit::compile_module(&m, &spec).expect("compilation is host-independent");
    assert!(!code.encoding().is_empty());
    match code.map() {
        Err(jit::JitError::Unsupported(_)) => {}
        other => panic!("expected Unsupported, got {other:?}"),
    }
    // Static verification is execution-free, so it must work even here.
    let report = verify::verify_module(&m, &spec, &code);
    assert!(report.diags.is_empty(), "verifier must not need executable memory");
}
