//! Micro-benchmarks of allocation time as a function of the
//! register-candidate count — the continuous version of the paper's
//! Table 3 (and the "linear scan is linear, coloring is not" claim of
//! §2.6/§3.2).
//!
//! Runs on a dependency-free internal harness (best-of-N wall clock, the
//! paper's own methodology) so the suite builds without registry access.
//!
//! ```sh
//! cargo bench -p lsra-bench --bench scaling
//! ```

use lsra_bench::time_allocation;
use lsra_coloring::ColoringAllocator;
use lsra_core::{BinpackAllocator, RegisterAllocator};
use lsra_ir::MachineSpec;
use lsra_poletto::PolettoAllocator;
use lsra_workloads::scaling;

fn main() {
    let spec = MachineSpec::alpha_like();
    let runs = 10;

    println!("allocation_time_vs_candidates (best of {runs})");
    println!(
        "{:<12} {:>14} {:>14} {:>14}",
        "candidates", "binpack (ms)", "coloring (ms)", "poletto (ms)"
    );
    println!("{}", "-".repeat(58));
    for &candidates in &[100, 300, 1000, 3000] {
        let overlap = (candidates / 12).clamp(16, 56);
        let module = scaling::module_with_candidates("scal", candidates, overlap, 1);
        let allocators: [&dyn RegisterAllocator; 3] =
            [&BinpackAllocator::default(), &ColoringAllocator, &PolettoAllocator];
        let times: Vec<f64> = allocators
            .iter()
            .map(|alloc| time_allocation(&module, *alloc, &spec, runs).0)
            .collect();
        println!(
            "{:<12} {:>14.3} {:>14.3} {:>14.3}",
            candidates,
            times[0] * 1e3,
            times[1] * 1e3,
            times[2] * 1e3,
        );
    }
    println!();
    println!(
        "Linear scan's time should grow linearly with the candidate count; \
         coloring's superlinearly with the interference graph."
    );
}
