//! Static translation validation: the machine-code verifier must accept
//! everything the JIT emits and reject everything else.
//!
//! Three pillars:
//!
//! * **Golden sweep** — every built-in workload × every allocator × both
//!   machines compiles and verifies with zero diagnostics. This runs on
//!   every host: static verification needs no executable memory.
//! * **Round-trip** — a randomized property sweep over the decoder's typed
//!   instruction space: `encode(decode(bytes)) == bytes` and
//!   `decode(encode(inst)) == inst` for thousands of operand/immediate/
//!   displacement combinations.
//! * **Mutation** — flipping any single byte of a compiled function must
//!   produce at least one diagnostic (or a decode rejection, which is a
//!   diagnostic). A corrupted image must never verify silently.

use second_chance_regalloc::allocate_and_cleanup;
use second_chance_regalloc::prelude::*;
use second_chance_regalloc::server::protocol::{allocator_by_name, ALLOCATOR_NAMES};
use second_chance_regalloc::verify;

use lsra_verify::decoder::{decode_one, MInst};
use lsra_workloads::Lcg;

fn machines() -> [(&'static str, MachineSpec); 2] {
    [("alpha", MachineSpec::alpha_like()), ("small", MachineSpec::small(6, 4))]
}

/// Every workload × allocator × machine verifies with zero diagnostics.
#[test]
fn verifier_accepts_all_golden_sweep_images() {
    let mut verified = 0usize;
    for w in lsra_workloads::all() {
        let original = (w.build)();
        for (mname, spec) in machines() {
            for aname in ALLOCATOR_NAMES {
                let case = format!("{} / {aname} / {mname}", w.name);
                let alloc = allocator_by_name(aname, 1, false).unwrap();
                let mut m = original.clone();
                allocate_and_cleanup(&mut m, alloc.as_ref(), &spec);
                let code = second_chance_regalloc::jit::compile_module(&m, &spec)
                    .unwrap_or_else(|e| panic!("{case}: compile failed: {e}"));
                let report = verify::verify_module(&m, &spec, &code);
                assert!(
                    report.diags.is_empty(),
                    "{case}: verifier flagged valid code:\n{}",
                    report.render_human()
                );
                verified += m.funcs.len();
            }
        }
    }
    assert!(verified > 100, "sweep verified only {verified} functions");
}

// ---------------------------------------------------------------------------
// Round-trip property sweep
// ---------------------------------------------------------------------------

fn any_gpr(rng: &mut Lcg) -> second_chance_regalloc::jit::encoder::Gpr {
    second_chance_regalloc::jit::encoder::Gpr(rng.below(16) as u8)
}

/// Byte-addressable registers the encoder's `setcc`/`and r8` accept.
fn low_gpr(rng: &mut Lcg) -> second_chance_regalloc::jit::encoder::Gpr {
    second_chance_regalloc::jit::encoder::Gpr(rng.below(4) as u8)
}

/// A SIB index register (anything but rsp/r12, whose index encoding the
/// encoder reserves for "no index").
fn index_gpr(rng: &mut Lcg) -> second_chance_regalloc::jit::encoder::Gpr {
    loop {
        let r = any_gpr(rng);
        if r.0 & 7 != 4 {
            return r;
        }
    }
}

/// A SIB base register for the displacement-free scaled forms (anything
/// but rbp/r13, which require a displacement under mod=0).
fn index_base_gpr(rng: &mut Lcg) -> second_chance_regalloc::jit::encoder::Gpr {
    loop {
        let r = any_gpr(rng);
        if r.0 & 7 != 5 {
            return r;
        }
    }
}

fn any_xmm(rng: &mut Lcg) -> second_chance_regalloc::jit::encoder::Xmm {
    second_chance_regalloc::jit::encoder::Xmm(rng.below(16) as u8)
}

fn any_cc(rng: &mut Lcg) -> second_chance_regalloc::jit::encoder::Cc {
    use second_chance_regalloc::jit::encoder::Cc;
    Cc::ALL[rng.below(Cc::ALL.len() as u64) as usize]
}

fn any_disp(rng: &mut Lcg) -> i32 {
    rng.next_u64() as i32
}

fn random_inst(rng: &mut Lcg) -> MInst {
    use lsra_verify::decoder::{AluOp, SseOp};
    use second_chance_regalloc::jit::encoder::{RBP, RBX};
    let alu = [AluOp::Add, AluOp::Sub, AluOp::And, AluOp::Or, AluOp::Xor, AluOp::Cmp, AluOp::Test];
    let sse = [SseOp::Add, SseOp::Sub, SseOp::Mul, SseOp::Div, SseOp::Sqrt];
    match rng.below(38) {
        0 => MInst::MovRR { dst: any_gpr(rng), src: any_gpr(rng) },
        1 => MInst::MovRI { dst: any_gpr(rng), imm: rng.next_u64() as i64 },
        2 => MInst::MovRI { dst: any_gpr(rng), imm: rng.next_u64() as i32 as i64 },
        3 => MInst::MovRM { dst: any_gpr(rng), base: any_gpr(rng), disp: any_disp(rng) },
        4 => MInst::MovMR { base: any_gpr(rng), disp: any_disp(rng), src: any_gpr(rng) },
        5 => MInst::MovRMIndex8 {
            dst: any_gpr(rng),
            base: index_base_gpr(rng),
            index: index_gpr(rng),
        },
        6 => MInst::MovMRIndex8 {
            base: index_base_gpr(rng),
            index: index_gpr(rng),
            src: any_gpr(rng),
        },
        7 => MInst::MovMI { base: any_gpr(rng), disp: any_disp(rng), imm: rng.next_u64() as i32 },
        8 => MInst::MovzxRb { dst: any_gpr(rng), src: low_gpr(rng) },
        9 => MInst::Alu {
            op: alu[rng.below(alu.len() as u64) as usize],
            dst: any_gpr(rng),
            src: any_gpr(rng),
        },
        10 => MInst::ImulRR { dst: any_gpr(rng), src: any_gpr(rng) },
        11 => MInst::AddRI { reg: any_gpr(rng), imm: rng.next_u64() as i32 },
        12 => MInst::SubRI { reg: any_gpr(rng), imm: rng.next_u64() as i32 },
        13 => MInst::CmpRI8 { reg: any_gpr(rng), imm: rng.next_u64() as i8 },
        14 => MInst::CmpMI8 { base: any_gpr(rng), disp: any_disp(rng), imm: rng.next_u64() as i8 },
        15 => MInst::CmpRM { reg: any_gpr(rng), base: any_gpr(rng), disp: any_disp(rng) },
        16 => MInst::NegR { reg: any_gpr(rng) },
        17 => MInst::NotR { reg: any_gpr(rng) },
        18 => MInst::ShlCl { reg: any_gpr(rng) },
        19 => MInst::SarCl { reg: any_gpr(rng) },
        20 => MInst::Cqo,
        21 => MInst::IdivR { reg: any_gpr(rng) },
        22 => MInst::ZeroR { reg: any_gpr(rng) },
        23 => MInst::Setcc { cc: any_cc(rng), reg: low_gpr(rng) },
        24 => MInst::AndRR8 { dst: low_gpr(rng), src: low_gpr(rng) },
        25 => MInst::IncM { base: any_gpr(rng), disp: any_disp(rng) },
        26 => MInst::DecM { base: any_gpr(rng), disp: any_disp(rng) },
        27 => MInst::MovsdXM { dst: any_xmm(rng), base: any_gpr(rng), disp: any_disp(rng) },
        28 => MInst::MovsdMX { base: any_gpr(rng), disp: any_disp(rng), src: any_xmm(rng) },
        29 => MInst::Sse {
            op: sse[rng.below(sse.len() as u64) as usize],
            dst: any_xmm(rng),
            src: any_xmm(rng),
        },
        30 => MInst::Ucomisd { a: any_xmm(rng), b: any_xmm(rng) },
        31 => MInst::Cvtsi2sd { dst: any_xmm(rng), src: any_gpr(rng) },
        32 => MInst::PushR { reg: any_gpr(rng) },
        33 => MInst::PopR { reg: any_gpr(rng) },
        34 => match rng.below(4) {
            0 => MInst::Leave,
            1 => MInst::Ret,
            2 => MInst::RepStosq,
            _ => MInst::CallR { reg: any_gpr(rng) },
        },
        35 => MInst::Jmp { rel: rng.next_u64() as i32 },
        36 => MInst::Jcc { cc: any_cc(rng), rel: rng.next_u64() as i32 },
        _ => {
            // Keep a couple of fixed-register shapes in rotation too.
            let _ = (RBX, RBP);
            MInst::CallRel { rel: rng.next_u64() as i32 }
        }
    }
}

/// `decode(encode(inst)) == inst` over the randomized instruction space,
/// and the decode consumes exactly the emitted bytes.
#[test]
fn decoder_round_trips_randomized_instructions() {
    let mut rng = Lcg::new(0x5eed_1dea);
    for i in 0..20_000 {
        let inst = random_inst(&mut rng);
        let mut bytes = Vec::new();
        inst.encode(&mut bytes);
        let (decoded, len) = decode_one(&bytes, 0).unwrap_or_else(|e| {
            panic!("iteration {i}: `{inst}` did not decode: {e}\nbytes: {bytes:02x?}")
        });
        assert_eq!(decoded, inst, "iteration {i}: round trip changed the instruction");
        assert_eq!(len, bytes.len(), "iteration {i}: `{inst}` decoded short");
    }
}

/// Streams of random instructions decode back instruction-for-instruction
/// (no misalignment: each decode starts exactly where the previous ended).
#[test]
fn decoder_round_trips_instruction_streams() {
    let mut rng = Lcg::new(0xbeef_cafe);
    for _ in 0..200 {
        let insts: Vec<MInst> = (0..40).map(|_| random_inst(&mut rng)).collect();
        let mut bytes = Vec::new();
        for inst in &insts {
            inst.encode(&mut bytes);
        }
        let mut pos = 0;
        for (i, inst) in insts.iter().enumerate() {
            let (decoded, len) = decode_one(&bytes, pos)
                .unwrap_or_else(|e| panic!("stream inst {i} (`{inst}`): {e}"));
            assert_eq!(&decoded, inst, "stream inst {i} decoded differently");
            pos += len;
        }
        assert_eq!(pos, bytes.len());
    }
}

// ---------------------------------------------------------------------------
// Mutation testing
// ---------------------------------------------------------------------------

/// A compact module exercising most template families: arithmetic,
/// comparison, float ops, memory with bounds checks, a division diamond,
/// control flow, and an external call.
fn mutation_module() -> (lsra_ir::Module, MachineSpec) {
    let spec = MachineSpec::alpha_like();
    let text = "\
module mutate (4 words data)
func @main() {
b0:
  r0 = 6
  r1 = 7
  r2 = mul r0, r1
  f0 = 2.5
  f1 = itof r2
  f1 = fadd f0, f1
  r3 = fcmplt f0, f1
  r3 = ftoi f1
  st [r0+-6], r3
  r4 = ld [r0+-6]
  r5 = div r4, r1
  r6 = cmplt r5, r2
  bne r6, b1, b2
b1:
  call !putint (r5)
  jmp b2
b2:
  ret r5
}
";
    let m = lsra_ir::parse_module(text).expect("parse mutation module");
    (m, spec)
}

/// Every single-byte corruption of the compiled image is flagged: either
/// the decoder rejects the bytes or the symbolic verifier reports a
/// contract violation. No mutation passes silently.
#[test]
fn verifier_flags_every_single_byte_mutation() {
    let (m, spec) = mutation_module();
    let code = second_chance_regalloc::jit::compile_module(&m, &spec).expect("compile");
    let clean = verify::verify_module(&m, &spec, &code);
    assert!(clean.diags.is_empty(), "baseline must verify:\n{}", clean.render_human());

    let bytes = code.encoding();
    let mut silent = Vec::new();
    for off in 0..bytes.len() {
        let mut corrupt = bytes.to_vec();
        corrupt[off] ^= 0xFF;
        let report = verify::verify_image(
            &m.funcs,
            m.entry,
            &spec,
            &corrupt,
            code.entry_offset(),
            code.func_ranges(),
        );
        if report.diags.is_empty() {
            silent.push(off);
        }
    }
    assert!(
        silent.is_empty(),
        "{} of {} byte mutations verified silently (offsets {silent:?})",
        silent.len(),
        bytes.len()
    );
}

/// Targeted semantic corruptions: swap a frame displacement, retarget a
/// branch, change a counter slot — each must produce the matching N-code.
#[test]
fn verifier_assigns_meaningful_codes_to_corruptions() {
    use second_chance_regalloc::lint::LintCode;
    let (m, spec) = mutation_module();
    let code = second_chance_regalloc::jit::compile_module(&m, &spec).expect("compile");
    let bytes = code.encoding().to_vec();
    let run = |corrupt: &[u8]| {
        verify::verify_image(
            &m.funcs,
            m.entry,
            &spec,
            corrupt,
            code.entry_offset(),
            code.func_ranges(),
        )
    };
    // Truncating the image breaks coverage / the epilogue.
    let report = run(&bytes[..bytes.len() - 1]);
    assert!(report.count(LintCode::NativeFrame) > 0, "truncation:\n{}", report.render_human());
    // The first byte of the trampoline is `push rbp`; 0xAA is no prefix or
    // opcode the decoder knows.
    let mut t = bytes.clone();
    t[code.entry_offset()] ^= 0xFF;
    let report = run(&t);
    assert!(report.count(LintCode::NativeDecode) > 0, "trampoline:\n{}", report.render_human());
}

/// The fuel contract: the trampoline loads the fuel into `r13` and stores
/// it back, each prelude is `sub r13, 1; jb fuel_stub`, and a spill-tagged
/// instruction's prelude bumps its own `by_tag` cell. Breaking any part of
/// it must be reported as a counter or frame fault, and nothing else.
#[test]
fn verifier_flags_corrupted_fuel_and_counter_shapes() {
    use second_chance_regalloc::jit::abi::OFF_FUEL;
    use second_chance_regalloc::jit::encoder::{R12, R13, RBX};
    use second_chance_regalloc::lint::{LintCode, LintReport};
    let (m, spec) = mutation_module();
    // `r1 = 7` (b0 inst 1) stands in for spill code, so its prelude carries
    // a `by_tag` bump.
    let tagged = |tag: SpillTag| {
        let mut t = m.clone();
        t.funcs[0].blocks[0].insts[1].tag = tag;
        t
    };
    let ir = tagged(SpillTag::EvictMove);
    let compile = |m: &lsra_ir::Module| {
        let code = second_chance_regalloc::jit::compile_module(m, &spec).expect("compile");
        (code.encoding().to_vec(), code.entry_offset(), code.func_ranges().to_vec())
    };
    let verify = |bytes: &[u8], entry: usize, ranges: &[(usize, usize)]| {
        verify::verify_image(&ir.funcs, ir.entry, &spec, bytes, entry, ranges)
    };
    let assert_flagged = |what: &str, report: &LintReport| {
        let ok = |c| c == LintCode::NativeCounter || c == LintCode::NativeFrame;
        assert!(
            !report.diags.is_empty() && report.diags.iter().all(|d| ok(d.code)),
            "{what}: expected only counter or frame faults:\n{}",
            report.render_human()
        );
    };
    let (bytes, entry, ranges) = compile(&ir);
    assert!(verify(&bytes, entry, &ranges).diags.is_empty(), "the tagged image must verify");
    // First instruction at or after `from` equal to `want`: `(offset, length)`.
    let find = |bytes: &[u8], from: usize, want: MInst| {
        let mut pos = from;
        loop {
            let (mi, len) = decode_one(bytes, pos).expect("clean image decodes");
            if mi == want {
                return (pos, len);
            }
            pos += len;
        }
    };
    let reencode = |at: usize, len: usize, with: MInst| {
        let mut enc = Vec::new();
        with.encode(&mut enc);
        assert_eq!(enc.len(), len, "`{with}` must keep the instruction length");
        let mut out = bytes.clone();
        out[at..at + len].copy_from_slice(&enc);
        out
    };

    // The first prelude, and the `jb` right after it.
    let fuel_dec = MInst::SubRI { reg: R13, imm: 1 };
    let (at, len) = find(&bytes, ranges[0].0, fuel_dec);
    for (what, with) in [
        ("sub r13, 2", MInst::SubRI { reg: R13, imm: 2 }),
        ("sub r12, 1", MInst::SubRI { reg: R12, imm: 1 }),
    ] {
        assert_flagged(what, &verify(&reencode(at, len, with), entry, &ranges));
    }
    let mut jae = bytes.clone();
    assert_eq!(jae[at + len..at + len + 2], [0x0F, 0x82], "jb follows the decrement");
    jae[at + len + 1] = 0x83;
    assert_flagged("jae for jb", &verify(&jae, entry, &ranges));

    // The tagged instruction's bump dropped, or aimed at another tag: the
    // same IR compiled untagged, or with a different tag, verified against
    // the `EvictMove` IR.
    for (what, tag) in [("dropped bump", SpillTag::None), ("other tag", SpillTag::EvictLoad)] {
        let (other, e, r) = compile(&tagged(tag));
        assert_eq!((e, r.len()), (entry, ranges.len()));
        assert_flagged(what, &verify(&other, e, &r));
    }

    // The trampoline's fuel load or store cut out. Every function moves
    // down by the cut, so the ranges shift with it, and cutting after the
    // entry call shortens its rel32 too; only the missing move is wrong.
    let (call, rel) = find_call(&bytes, entry);
    for (what, want) in [
        ("fuel load removed", MInst::MovRM { dst: R13, base: RBX, disp: OFF_FUEL }),
        ("fuel store removed", MInst::MovMR { base: RBX, disp: OFF_FUEL, src: R13 }),
    ] {
        let (cut, len) = find(&bytes, entry, want);
        let mut out = bytes.clone();
        out.drain(cut..cut + len);
        if cut > call {
            let rel = (rel - len as i32).to_le_bytes();
            out[call + 1..call + 5].copy_from_slice(&rel);
        }
        let shifted: Vec<_> = ranges.iter().map(|&(s, e)| (s - len, e - len)).collect();
        let report = verify(&out, entry, &shifted);
        assert_flagged(what, &report);
        assert_eq!(report.diags.len(), 1, "{what}: only the trampoline is wrong");
    }
}

/// The entry trampoline's `call rel32`: `(offset, rel32)`.
fn find_call(bytes: &[u8], entry: usize) -> (usize, i32) {
    let mut pos = entry;
    loop {
        let (mi, len) = decode_one(bytes, pos).expect("clean trampoline decodes");
        if let MInst::CallRel { rel } = mi {
            return (pos, rel);
        }
        pos += len;
    }
}

// ---------------------------------------------------------------------------
// Disassembly
// ---------------------------------------------------------------------------

/// The annotated listing is deterministic, names helpers symbolically, and
/// interleaves the allocated IR with the machine code.
#[test]
fn disassembly_is_deterministic_and_annotated() {
    let (m, spec) = mutation_module();
    let code = second_chance_regalloc::jit::compile_module(&m, &spec).expect("compile");
    let a = verify::disasm_module(&m, &spec, &code);
    let b = verify::disasm_module(&m, &spec, &code);
    assert_eq!(a, b, "listing must be deterministic");
    for needle in [
        "; entry trampoline",
        "; fn main",
        "; prologue",
        "; b0:",
        "; stubs:",
        "<ext:putint>",
        "<rt:ftoi>",
        "push rbp",
        "idiv",
        "ucomisd",
    ] {
        assert!(a.contains(needle), "listing is missing `{needle}`:\n{a}");
    }
    // Helper addresses must never appear numerically: every `call` through
    // a register goes through a symbolized immediate.
    for line in a.lines() {
        assert!(
            !(line.contains("mov rax, 0x") && line.contains("call")),
            "raw helper address leaked into the listing: {line}"
        );
    }
}

/// Listings for a helper-free function are stable enough to pin.
#[test]
fn disassembly_of_tiny_function_is_pinnable() {
    let spec = MachineSpec::alpha_like();
    let text = "\
module tiny (0 words data)
func @main() {
b0:
  r0 = 41
  r1 = 1
  r0 = add r0, r1
  ret r0
}
";
    let m = lsra_ir::parse_module(text).expect("parse");
    let code = second_chance_regalloc::jit::compile_module(&m, &spec).expect("compile");
    let listing = verify::disasm_module(&m, &spec, &code);
    // Structure, not full bytes: IR annotations in program order.
    let order = ["; prologue", "; r0 = 41", "; r1 = 1", "; r0 = add r0, r1", "; ret r0", "; stubs"];
    let mut last = 0;
    for needle in order {
        let at = listing.find(needle).unwrap_or_else(|| panic!("missing `{needle}`:\n{listing}"));
        assert!(at >= last, "`{needle}` out of order:\n{listing}");
        last = at;
    }
    let report = verify::verify_module(&m, &spec, &code);
    assert!(report.diags.is_empty(), "{}", report.render_human());
}

// ---------------------------------------------------------------------------
// Lint integration
// ---------------------------------------------------------------------------

/// The native code family parses, denies, and renders like the others.
#[test]
fn native_lint_codes_integrate_with_the_lint_machinery() {
    use second_chance_regalloc::lint::{LintCode, Severity};
    for (text, want) in [
        ("N001", LintCode::NativeDecode),
        ("native-decode", LintCode::NativeDecode),
        ("N003", LintCode::NativeDataflow),
        ("native-branch", LintCode::NativeBranch),
        ("N007", LintCode::NativeCall),
    ] {
        let code = LintCode::parse(text).unwrap_or_else(|| panic!("`{text}` must parse"));
        assert_eq!(code, want);
        assert_eq!(code.severity(), Severity::Error);
        assert!(code.is_native());
    }
    assert!(LintCode::parse("N999").is_none());
    assert!(!LintCode::parse("Q101").unwrap().is_native());
}

// ---------------------------------------------------------------------------
// Fuzz oracle stage 6
// ---------------------------------------------------------------------------

/// Stage 6 carries the native oracle alone: with dynamic execution off
/// (as on a noexec host), 500+ random cases must still compile and verify
/// statically with zero false positives.
#[test]
fn fuzz_stage_six_runs_five_hundred_cases_clean_without_execution() {
    use second_chance_regalloc::fuzz::{run_fuzz, FuzzConfig};
    let cfg = FuzzConfig {
        iters: 34, // 34 iters × 3 machines × 5 allocators = 510 cases
        native: false,
        serve: false,
        ..FuzzConfig::default()
    };
    assert!(cfg.verify, "static verification must be on by default");
    let report = run_fuzz(&cfg);
    assert!(report.cases >= 500, "only {} cases ran", report.cases);
    assert!(
        report.ok(),
        "stage-6 verification failures: {:?}",
        report.failures.iter().map(|f| (&f.allocator, &f.machine, &f.what)).collect::<Vec<_>>()
    );
}
