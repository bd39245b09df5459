//! The textual IR pipeline end to end: parse the shipped `.lsra` sources,
//! run them, allocate them, and round-trip them through the printer —
//! everything the `lsra` CLI does, exercised as a library.

use second_chance_regalloc::allocate_and_cleanup;
use second_chance_regalloc::prelude::*;
use second_chance_regalloc::server::protocol::{allocator_by_name, ALLOCATOR_NAMES};
use second_chance_regalloc::workloads::random::{RandomConfig, RandomProgram};

fn load(name: &str) -> Module {
    let path = format!("{}/examples/ir/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    lsra_ir::parse_module(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn gcd_parses_runs_and_allocates() {
    let spec = MachineSpec::alpha_like();
    let module = load("gcd.lsra");
    let r = run_module(&module, &spec, &[]).unwrap();
    assert_eq!(r.ret, Some(21), "gcd(252, 105)");
    assert_eq!(r.output, vec![lsra_vm::OutputEvent::Int(21)]);

    for alloc in [
        Box::new(BinpackAllocator::default()) as Box<dyn RegisterAllocator>,
        Box::new(ColoringAllocator),
        Box::new(PolettoAllocator),
    ] {
        let mut m = module.clone();
        allocate_and_cleanup(&mut m, alloc.as_ref(), &spec);
        verify_allocation(&module, &m, &spec, &[], VmOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", alloc.name()));
    }
}

#[test]
fn gcd_survives_a_three_register_machine() {
    let spec = MachineSpec::small(3, 2);
    let module = load("gcd.lsra");
    let mut m = module.clone();
    allocate_and_cleanup(&mut m, &BinpackAllocator::default(), &spec);
    let r = verify_allocation(&module, &m, &spec, &[], VmOptions::default()).unwrap();
    assert_eq!(r.ret, Some(21));
}

/// `print(parse(print(m))) == print(m)`: printed text is its own
/// canonical form. The allocation service's raw-text cache probe relies on
/// this (text equal to a stored canonical text must canonicalise to
/// itself).
fn assert_print_is_a_fixpoint(what: &str, module: &Module) -> Module {
    let text = module.to_string();
    let reparsed = lsra_ir::parse_module(&text).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(reparsed.to_string(), text, "{what}: round trip changed the text");
    reparsed
}

#[test]
fn printer_and_parser_are_inverse_on_workloads() {
    // Print, parse, print again: the texts must agree, and the reparsed
    // module must behave identically. Allocated output (spill tags, slots,
    // negative offsets, physical operands) and random programs must print
    // to a fixpoint too.
    let spec = MachineSpec::alpha_like();
    let machines = [spec.clone(), MachineSpec::small(4, 2)];
    for w in lsra_workloads::all() {
        let module = (w.build)();
        let reparsed = assert_print_is_a_fixpoint(w.name, &module);
        let input = (w.input)();
        let a = run_module(&module, &spec, &input).unwrap();
        let b = run_module(&reparsed, &spec, &input).unwrap();
        assert_eq!(a, b, "{}: reparsed module behaves differently", w.name);
        for machine in &machines {
            for name in ALLOCATOR_NAMES {
                let mut allocated = module.clone();
                allocator_by_name(name, 1, false)
                    .expect("registered name")
                    .allocate_module(&mut allocated, machine);
                let what = format!("{} / {name} / {}", w.name, machine.name());
                assert_print_is_a_fixpoint(&what, &allocated);
            }
        }
    }
    for seed in 0..200 {
        let module = RandomProgram::new(seed, RandomConfig::default()).build(&spec);
        assert_print_is_a_fixpoint(&format!("random seed {seed}"), &module);
    }
}

#[test]
fn allocated_code_round_trips_through_text() {
    // Spill instructions (with slots), tags, and physical operands survive
    // printing and parsing.
    let spec = MachineSpec::small(4, 2);
    let w = lsra_workloads::by_name("eqntott").unwrap();
    let mut module = (w.build)();
    BinpackAllocator::default().allocate_module(&mut module, &spec);
    let text = module.to_string();
    let reparsed = lsra_ir::parse_module(&text).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(reparsed.to_string(), text);
    // The reparsed module doesn't know it is allocated (text carries no
    // flag), but its instructions must execute identically.
    let input = (w.input)();
    // Mark functions allocated so the VM uses physical mode semantics for
    // spill slots.
    let mut reparsed = reparsed;
    for id in reparsed.func_ids().collect::<Vec<_>>() {
        reparsed.func_mut(id).allocated = true;
    }
    let a = run_module(&module, &spec, &input).unwrap();
    let b = run_module(&reparsed, &spec, &input).unwrap();
    assert_eq!(a.ret, b.ret);
    assert_eq!(a.output, b.output);
}

/// One seeded byte-level mutation of `line`: truncate the line, delete a
/// token, or swap a number for `300` or `4000000000` (a line with no token
/// or number to act on is truncated instead).
fn mutate_line(line: &str, rng: &mut lsra_workloads::Lcg) -> String {
    // Byte spans of the maximal runs of `keep` bytes (printed text is ASCII).
    let b = line.as_bytes();
    let spans = |keep: fn(&u8) -> bool| -> Vec<(usize, usize)> {
        let end = |s: usize| (s..b.len()).find(|&j| !keep(&b[j])).unwrap_or(b.len());
        (0..b.len())
            .filter(|&i| keep(&b[i]) && (i == 0 || !keep(&b[i - 1])))
            .map(|s| (s, end(s)))
            .collect()
    };
    let pick = |spans: &[(usize, usize)], rng: &mut lsra_workloads::Lcg| {
        spans[rng.below(spans.len() as u64) as usize]
    };
    let tokens = spans(|c| !c.is_ascii_whitespace());
    let numbers = spans(u8::is_ascii_digit);
    match rng.below(3) {
        1 if !tokens.is_empty() => {
            let (s, e) = pick(&tokens, rng);
            format!("{}{}", &line[..s], &line[e..])
        }
        2 if !numbers.is_empty() => {
            let (s, e) = pick(&numbers, rng);
            let n = if rng.below(2) == 0 { "300" } else { "4000000000" };
            format!("{}{n}{}", &line[..s], &line[e..])
        }
        _ => line[..rng.below(line.len() as u64) as usize].to_string(),
    }
}

/// Seeded mutants (one mutated line each) of the printed workloads and of
/// one allocated module, through both module readers: each must answer
/// `Ok` or `Err`, never panic; an error names a line of the text (0 only
/// for a module-level rule such as a missing entry); and an accepted module
/// prints to a fixpoint.
#[test]
fn mutated_text_is_read_or_refused_never_a_panic() {
    let mut texts: Vec<(String, String)> = lsra_workloads::all()
        .iter()
        .map(|w| (w.name.to_string(), (w.build)().to_string()))
        .collect();
    let w = lsra_workloads::by_name("eqntott").unwrap();
    let mut allocated = (w.build)();
    BinpackAllocator::default().allocate_module(&mut allocated, &MachineSpec::small(4, 2));
    texts.push(("eqntott / binpack".to_string(), allocated.to_string()));
    let mut rng = lsra_workloads::Lcg::new(23);
    let (mut accepted, mut refused) = (0, 0);
    for (name, text) in &texts {
        let lines: Vec<&str> = text.lines().collect();
        for _ in 0..60 {
            let at = rng.below(lines.len() as u64) as usize;
            let mutated = mutate_line(lines[at], &mut rng);
            let mut mutant = lines.clone();
            mutant[at] = &mutated;
            let mutant = mutant.join("\n");
            let what = format!("{name}, line {} `{}` -> `{mutated}`", at + 1, lines[at]);
            let full = std::panic::catch_unwind(|| lsra_ir::parse_module(&mutant));
            let syntax = std::panic::catch_unwind(|| lsra_ir::parse_module_syntax(&mutant));
            let (Ok(full), Ok(syntax)) = (full, syntax) else {
                panic!("{what}: a module reader panicked");
            };
            match full {
                Ok(m) => {
                    assert!(syntax.is_ok(), "{what}: parse_module accepts what the syntax refuses");
                    assert_print_is_a_fixpoint(&what, &m);
                    accepted += 1;
                }
                Err(e) => {
                    assert!(e.line <= lines.len(), "{what}: {e} is past the last line");
                    refused += 1;
                }
            }
            if let Err(e) = syntax {
                assert!((1..=lines.len()).contains(&e.line), "{what}: {e} names no line");
            }
        }
    }
    // Both outcomes occur, so neither branch is vacuous.
    assert!(accepted > 0 && refused > 0, "accepted {accepted}, refused {refused}");
}
