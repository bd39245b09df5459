//! Regression harness for minimized fuzz repros.
//!
//! When `lsra fuzz --shrink` minimizes a failing module, its `.lsra` text
//! belongs in [`REPROS`] below with the machine and allocator that failed;
//! the harness then replays every entry through the full oracle (symbolic
//! checker, differential execution, native execution and verification) on
//! every test run.
//!
//! The table is currently empty: the fuzzing campaigns run while building
//! this subsystem (several hundred iterations across `small:2,1`,
//! `small:4,2`, and `alpha`, all five allocators) found no failures. The
//! harness itself is exercised by a known-good witness case so that table
//! entries added later cannot silently rot.

use second_chance_regalloc::fuzz::check_case;
use second_chance_regalloc::prelude::*;

/// One minimized repro: (name, machine, allocator, `.lsra` module text).
/// `allocator` may be `"*"` to replay under every allocator.
const REPROS: &[(&str, &str, &str, &str)] = &[];

fn machine(spec: &str) -> MachineSpec {
    match spec {
        "alpha" => MachineSpec::alpha_like(),
        other => {
            let rest = other.strip_prefix("small:").expect("machine is alpha or small:I,F");
            let (i, f) = rest.split_once(',').expect("small:I,F");
            MachineSpec::small(i.parse().unwrap(), f.parse().unwrap())
        }
    }
}

fn replay(name: &str, spec_name: &str, allocator: &str, text: &str) {
    let module = lsra_ir::parse_module(text).unwrap_or_else(|e| panic!("{name}: parse: {e}"));
    module.validate().unwrap_or_else(|e| panic!("{name}: invalid module: {e}"));
    let spec = machine(spec_name);
    let allocators: Vec<&str> = if allocator == "*" {
        second_chance_regalloc::fuzz::ALLOCATOR_NAMES.to_vec()
    } else {
        vec![allocator]
    };
    for alloc in allocators {
        check_case(&module, alloc, &spec)
            .unwrap_or_else(|e| panic!("{name}/{alloc}/{spec_name}: {e}"));
    }
}

#[test]
fn minimized_fuzz_repros_stay_fixed() {
    for (name, spec, allocator, text) in REPROS {
        replay(name, spec, allocator, text);
    }
}

#[test]
fn harness_replays_an_ion_pressure_witness() {
    // A loop with more simultaneously live values than `small:2,1` has
    // integer registers: the backtracking allocator must split or spill to
    // place it, so the replay exercises ion's whole decision stack (not
    // just the straight-line happy path of the witness below).
    let witness = "\
module ion_pressure (0 words data)
entry @0
func @main() {
  temps t0:i t1:i t2:i t3:i t4:i t5:i
b0:
  t0 = 0
  t1 = 60
  t2 = 3
  t3 = 4
  jmp b1
b1:
  t4 = add t0, t2
  t0 = add t4, t3
  t5 = sub t0, t1
  blt t5, b1, b2
b2:
  r0 = t0
  ret r0
}
";
    replay("ion_pressure", "small:2,1", "ion", witness);
}

#[test]
fn harness_replays_a_witness_case() {
    // A hand-written module in the exact shape a shrunk repro would take;
    // proves the replay path (parse -> validate -> full oracle) works even
    // while REPROS is empty.
    let witness = "\
module witness (0 words data)
entry @0
func @main() {
  temps t0:i t1:i t2:i
b0:
  t0 = 7
  t1 = 35
  t2 = add t0, t1
  r0 = t2
  ret r0
}
";
    replay("witness", "small:2,1", "*", witness);
}
