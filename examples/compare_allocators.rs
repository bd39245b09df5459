//! Compare all five allocators on the benchmark suite: dynamic instruction
//! counts, spill fractions, and spill-code composition.
//!
//! ```sh
//! cargo run --release --example compare_allocators [workload ...]
//! ```

use second_chance_regalloc::allocate_and_cleanup;
use second_chance_regalloc::prelude::*;
use second_chance_regalloc::server::protocol::{allocator_by_name, ALLOCATOR_NAMES};

fn main() {
    let spec = MachineSpec::alpha_like();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workloads: Vec<_> = if args.is_empty() {
        lsra_workloads::all()
    } else {
        args.iter()
            .map(|n| lsra_workloads::by_name(n).unwrap_or_else(|| panic!("unknown workload {n}")))
            .collect()
    };
    let allocators: Vec<Box<dyn RegisterAllocator>> = ALLOCATOR_NAMES
        .iter()
        .map(|name| allocator_by_name(name, 0, false).expect("registered name"))
        .collect();

    println!(
        "{:<10} {:<26} {:>12} {:>9} {:>8}  {:>24} {:>24}",
        "benchmark",
        "allocator",
        "dyn insts",
        "spill",
        "spill%",
        "evict (ld/st/mv)",
        "resolve (ld/st/mv)"
    );
    for w in &workloads {
        let original = (w.build)();
        let input = (w.input)();
        for alloc in &allocators {
            let mut m = original.clone();
            allocate_and_cleanup(&mut m, alloc.as_ref(), &spec);
            let r = verify_allocation(&original, &m, &spec, &input, VmOptions::default())
                .unwrap_or_else(|e| panic!("{}/{}: {e}", w.name, alloc.name()));
            let (el, es, em) = r.counts.evict();
            let (rl, rs, rm) = r.counts.resolve();
            println!(
                "{:<10} {:<26} {:>12} {:>9} {:>7.3}%  {:>8}/{:>7}/{:>6} {:>8}/{:>7}/{:>6}",
                w.name,
                alloc.name(),
                r.counts.total,
                r.counts.spill_total(),
                100.0 * r.counts.spill_fraction(),
                el,
                es,
                em,
                rl,
                rs,
                rm,
            );
        }
        println!();
    }
}
