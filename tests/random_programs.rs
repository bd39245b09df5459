//! Property-based differential testing: random (but valid, terminating)
//! programs must behave identically before and after allocation, under
//! every allocator, on machines from register-starved to Alpha-sized.
//!
//! Cases are driven by the repo's own seeded [`Lcg`] generator instead of
//! an external property-testing framework, so the suite builds and runs
//! without registry access; every failure reports the offending seed, which
//! reproduces deterministically.

use second_chance_regalloc::prelude::*;
use second_chance_regalloc::workloads::random::{RandomConfig, RandomProgram};
use second_chance_regalloc::workloads::Lcg;

fn check(seed: u64, cfg: RandomConfig, spec: &MachineSpec) {
    let module = RandomProgram::new(seed, cfg).build(spec);
    module.validate().unwrap_or_else(|e| panic!("seed {seed}: invalid input: {e}"));
    let allocators: Vec<Box<dyn RegisterAllocator>> = vec![
        Box::new(BinpackAllocator::default()),
        Box::new(BinpackAllocator::two_pass()),
        Box::new(BinpackAllocator::new(BinpackConfig {
            consistency: lsra_core::ConsistencyMode::Conservative,
            ..Default::default()
        })),
        Box::new(BinpackAllocator::new(BinpackConfig {
            early_second_chance: false,
            move_coalescing: false,
            store_suppression: false,
            ..Default::default()
        })),
        Box::new(BinpackAllocator::new(BinpackConfig {
            allow_insufficient_holes: false,
            ..Default::default()
        })),
        Box::new(ColoringAllocator),
        Box::new(PolettoAllocator),
    ];
    for alloc in allocators {
        let mut m = module.clone();
        alloc.allocate_module(&mut m, spec);
        for id in m.func_ids().collect::<Vec<_>>() {
            m.func(id)
                .validate()
                .unwrap_or_else(|e| panic!("seed {seed}/{}: invalid output: {e}", alloc.name()));
        }
        // Symbolic checker: every read must be proven to see the right
        // temporary's value on every path. Runs before identity-move
        // removal (it pairs instructions 1:1 with the original program).
        second_chance_regalloc::checker::check_module(&module, &m, spec).unwrap_or_else(|e| {
            panic!("seed {seed}/{}/{}: symbolic: {e}", alloc.name(), spec.name())
        });
        for id in m.func_ids().collect::<Vec<_>>() {
            lsra_analysis::remove_identity_moves(m.func_mut(id));
        }
        // Second oracle: differential execution with caller-saved
        // poisoning.
        let options = VmOptions { fuel: 30_000_000, max_depth: 2_000 };
        verify_allocation(&module, &m, spec, &[], options)
            .unwrap_or_else(|e| panic!("seed {seed}/{}/{}: {e}", alloc.name(), spec.name()));
    }
}

const CASES: u64 = 48;

#[test]
fn random_programs_survive_all_allocators_alpha() {
    let mut rng = Lcg::new(0xA1FA);
    for _ in 0..CASES {
        check(rng.below(1_000_000), RandomConfig::default(), &MachineSpec::alpha_like());
    }
}

#[test]
fn random_programs_survive_all_allocators_small() {
    // A starved machine: every allocator must spill heavily and still
    // preserve semantics.
    let mut rng = Lcg::new(0x5A11);
    for _ in 0..CASES {
        check(rng.below(1_000_000), RandomConfig::default(), &MachineSpec::small(4, 3));
    }
}

#[test]
fn random_programs_survive_high_pressure_shapes() {
    let mut rng = Lcg::new(0x9E55);
    for _ in 0..CASES {
        let cfg = RandomConfig {
            blocks: 3 + rng.below(11) as usize,
            insts_per_block: 4 + rng.below(14) as usize,
            global_temps: 4 + rng.below(20) as usize,
            helpers: 2,
            call_percent: rng.below(40),
            fuel: 200,
            ..RandomConfig::default()
        };
        check(rng.below(1_000_000), cfg, &MachineSpec::small(5, 4));
    }
}

#[test]
fn fixed_regression_seeds() {
    // Seeds that exercised interesting paths during development; kept as a
    // fast deterministic regression net.
    for seed in [0, 1, 2, 3, 7, 11, 42, 99, 123456, 999_999, 213_099, 701_168] {
        check(seed, RandomConfig::default(), &MachineSpec::alpha_like());
        check(seed, RandomConfig::default(), &MachineSpec::small(3, 2));
    }
    // Shapes minimized from historical failures.
    for (seed, blocks, insts, globals, calls) in
        [(735_549, 12, 14, 11, 2), (439_566, 10, 17, 19, 25), (117_390, 3, 4, 4, 0)]
    {
        let cfg = RandomConfig {
            blocks,
            insts_per_block: insts,
            global_temps: globals,
            helpers: 2,
            call_percent: calls,
            fuel: 200,
            ..RandomConfig::default()
        };
        check(seed, cfg, &MachineSpec::small(5, 4));
    }
}
