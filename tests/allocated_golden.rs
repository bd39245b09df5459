//! Golden allocated output: a 64-bit FNV-1a hash of the allocated module's
//! textual form is pinned for every workload × allocator × machine, so any
//! change to the allocators' *output* — as opposed to their speed — shows
//! up as an explicit pin diff. This is the safety net for data-layout
//! refactors: flattening the hot path must be byte-identical, and these
//! pins prove it.
//!
//! A failing pin test prints the whole current table; after an
//! intentional output change, paste it over the old one.

use second_chance_regalloc::prelude::*;
use second_chance_regalloc::server::protocol::{allocator_by_name, ALLOCATOR_NAMES};
use second_chance_regalloc::trace::{TraceEvent, TraceSink};

fn machine_by_name(name: &str) -> MachineSpec {
    match name {
        "alpha" => MachineSpec::alpha_like(),
        "small" => MachineSpec::small(6, 4),
        other => panic!("unknown machine {other}"),
    }
}

/// Allocates `workload` and hashes the full textual form of the result.
fn allocated_hash(workload: &str, allocator: &str, machine: &str) -> u64 {
    let w = lsra_workloads::by_name(workload).unwrap();
    let mut m = (w.build)();
    let spec = machine_by_name(machine);
    // Serial (`workers: 1`), so the pins never depend on the host's cores.
    allocator_by_name(allocator, 1, false)
        .unwrap_or_else(|| panic!("unknown allocator {allocator}"))
        .allocate_module(&mut m, &spec);
    lsra_ir::fnv64(m.to_string().as_bytes())
}

/// Every (workload, allocator, machine, pin).
const PINS: &[(&str, &str, &str, u64)] = &[
    ("alvinn", "binpack", "alpha", 0x8591c98fe92efa7d),
    ("alvinn", "binpack", "small", 0x6eb8078f2c546e04),
    ("alvinn", "two-pass", "alpha", 0xb86accf75f857bbc),
    ("alvinn", "two-pass", "small", 0xf7f760189eb0b072),
    ("alvinn", "coloring", "alpha", 0x883f029fe93eb918),
    ("alvinn", "coloring", "small", 0xe64b7a1f8b032162),
    ("alvinn", "poletto", "alpha", 0xdccf0a02b605b257),
    ("alvinn", "poletto", "small", 0x1b32d24cbb238127),
    ("alvinn", "ion", "alpha", 0x4e45ba7ed5c78332),
    ("alvinn", "ion", "small", 0x270572fee80afbdc),
    ("doduc", "binpack", "alpha", 0x342087774a230a20),
    ("doduc", "binpack", "small", 0xd1657a1c96d831ce),
    ("doduc", "two-pass", "alpha", 0x1685fb0827e3c610),
    ("doduc", "two-pass", "small", 0x2b496e45a2df70ca),
    ("doduc", "coloring", "alpha", 0xa834ca941f312d39),
    ("doduc", "coloring", "small", 0x56eda522daa991be),
    ("doduc", "poletto", "alpha", 0x75a060b86185d2d0),
    ("doduc", "poletto", "small", 0x28133bd70afa3e6c),
    ("doduc", "ion", "alpha", 0xdd23181fe395ea45),
    ("doduc", "ion", "small", 0xf621ce234c424ab1),
    ("eqntott", "binpack", "alpha", 0x23a09eec65d5942c),
    ("eqntott", "binpack", "small", 0x509773cb08b5557b),
    ("eqntott", "two-pass", "alpha", 0xdc1176158996dc49),
    ("eqntott", "two-pass", "small", 0x56baa1c6d6ec12a5),
    ("eqntott", "coloring", "alpha", 0x950e3a56366ea671),
    ("eqntott", "coloring", "small", 0xcbc9bf19c0c7d592),
    ("eqntott", "poletto", "alpha", 0xc4e33c3c6a2e6bd8),
    ("eqntott", "poletto", "small", 0xf0d6357fd04eb93b),
    ("eqntott", "ion", "alpha", 0xf37e3eba32ea1558),
    ("eqntott", "ion", "small", 0x7ae3298ff3b4040e),
    ("espresso", "binpack", "alpha", 0x72c47df224f26382),
    ("espresso", "binpack", "small", 0x8c3df2dfbee74837),
    ("espresso", "two-pass", "alpha", 0x0c8974f588423c18),
    ("espresso", "two-pass", "small", 0x70aee60d97161c2e),
    ("espresso", "coloring", "alpha", 0x1f91a28726ad2015),
    ("espresso", "coloring", "small", 0xbadf131e9e77c8bc),
    ("espresso", "poletto", "alpha", 0x64104e95bfd1604b),
    ("espresso", "poletto", "small", 0x2640a724c25db5b8),
    ("espresso", "ion", "alpha", 0x0cd8948e2f603158),
    ("espresso", "ion", "small", 0x78acadb46288a275),
    ("fpppp", "binpack", "alpha", 0xda9e71927e3f53e7),
    ("fpppp", "binpack", "small", 0xcf07b4f9bfa09461),
    ("fpppp", "two-pass", "alpha", 0x389c21dd1af90030),
    ("fpppp", "two-pass", "small", 0xb5ea4764d766c052),
    ("fpppp", "coloring", "alpha", 0xe598e72795f55ff0),
    ("fpppp", "coloring", "small", 0x7af687cad7c56424),
    ("fpppp", "poletto", "alpha", 0x99006589b8de2d98),
    ("fpppp", "poletto", "small", 0x214cddc07fb7a053),
    ("fpppp", "ion", "alpha", 0x36b699d9f156785f),
    ("fpppp", "ion", "small", 0xb6db7e853ec9a5c7),
    ("li", "binpack", "alpha", 0x3e9737d2dcf9935f),
    ("li", "binpack", "small", 0xd26ec9e61b16bd61),
    ("li", "two-pass", "alpha", 0x778e8263a5501768),
    ("li", "two-pass", "small", 0xf529e140456c8aba),
    ("li", "coloring", "alpha", 0x3816864e932492b3),
    ("li", "coloring", "small", 0x8385e38717f49849),
    ("li", "poletto", "alpha", 0xb4368dbfde559cdb),
    ("li", "poletto", "small", 0xda6a4e80d369d5a0),
    ("li", "ion", "alpha", 0xd85bfe98ecd0554f),
    ("li", "ion", "small", 0x2d5de193a6378f21),
    ("tomcatv", "binpack", "alpha", 0xcde1c0b30b359d87),
    ("tomcatv", "binpack", "small", 0x5c7c4084acd1c9e0),
    ("tomcatv", "two-pass", "alpha", 0x185108f13a386ee4),
    ("tomcatv", "two-pass", "small", 0x597ae56cc39651b8),
    ("tomcatv", "coloring", "alpha", 0xa693c2745b95b342),
    ("tomcatv", "coloring", "small", 0xcca0d4bac3051dd7),
    ("tomcatv", "poletto", "alpha", 0x6d4e3b7c23d54f95),
    ("tomcatv", "poletto", "small", 0xdefa90c4a08ce164),
    ("tomcatv", "ion", "alpha", 0x1c90683ad8b9a731),
    ("tomcatv", "ion", "small", 0xf32cf375abeb3d77),
    ("compress", "binpack", "alpha", 0x6c0866111431d825),
    ("compress", "binpack", "small", 0xd78c439749231f4a),
    ("compress", "two-pass", "alpha", 0x6c0866111431d825),
    ("compress", "two-pass", "small", 0x2efdc438e9604e40),
    ("compress", "coloring", "alpha", 0xcd4a5d68e6c75bb6),
    ("compress", "coloring", "small", 0xccde7fe801bc9207),
    ("compress", "poletto", "alpha", 0x07db78535333d26f),
    ("compress", "poletto", "small", 0x6871e0ec67c1f7bc),
    ("compress", "ion", "alpha", 0xafdf9cbd21006a8a),
    ("compress", "ion", "small", 0x5e08c9bc2f39750e),
    ("m88ksim", "binpack", "alpha", 0x5ff90202681abad0),
    ("m88ksim", "binpack", "small", 0xc80ed5c1137ff578),
    ("m88ksim", "two-pass", "alpha", 0x4831ccf7b4a6a423),
    ("m88ksim", "two-pass", "small", 0x9f2ae10529804169),
    ("m88ksim", "coloring", "alpha", 0x86fb6049079cfbab),
    ("m88ksim", "coloring", "small", 0x28489d5e98b5690f),
    ("m88ksim", "poletto", "alpha", 0x30c7606320e1ea02),
    ("m88ksim", "poletto", "small", 0xee0cfd2f4c526b6a),
    ("m88ksim", "ion", "alpha", 0xe5226cd6c842d48c),
    ("m88ksim", "ion", "small", 0x6a9980c82c5aacbe),
    ("sort", "binpack", "alpha", 0xf42b7f7bb8fdd8ac),
    ("sort", "binpack", "small", 0x64344b0f8494551e),
    ("sort", "two-pass", "alpha", 0xa7c8f248acb07ea5),
    ("sort", "two-pass", "small", 0x3bc427e4820bcb1d),
    ("sort", "coloring", "alpha", 0x3e2a5397a35d4554),
    ("sort", "coloring", "small", 0x802d2220546a815c),
    ("sort", "poletto", "alpha", 0xa7c8f248acb07ea5),
    ("sort", "poletto", "small", 0x821b326579ecc5ce),
    ("sort", "ion", "alpha", 0x798c9b9ea8e62514),
    ("sort", "ion", "small", 0x9e0ca54b54f04869),
    ("wc", "binpack", "alpha", 0x638375c0535a6dcf),
    ("wc", "binpack", "small", 0x527f806c805a80f2),
    ("wc", "two-pass", "alpha", 0xd9d3bee3f9e49048),
    ("wc", "two-pass", "small", 0x1d0aeb2f42826d9a),
    ("wc", "coloring", "alpha", 0x686780bafa9058f0),
    ("wc", "coloring", "small", 0xa22ca00b93b963c3),
    ("wc", "poletto", "alpha", 0xc9864b212ff1b649),
    ("wc", "poletto", "small", 0xfe8620d28f73c32b),
    ("wc", "ion", "alpha", 0x7d289d0e160ad6bf),
    ("wc", "ion", "small", 0xb5674a8d42832123),
];

/// Allocates the scaling module `shape` at `insts` instructions on `alpha`
/// and hashes the full textual form of the result.
fn scaled_hash(shape: &str, insts: usize, allocator: &str) -> u64 {
    let mut m = lsra_workloads::scaling::scale_module(shape, insts).unwrap();
    allocator_by_name(allocator, 1, false)
        .unwrap_or_else(|| panic!("unknown allocator {allocator}"))
        .allocate_module(&mut m, &MachineSpec::alpha_like());
    lsra_ir::fnv64(m.to_string().as_bytes())
}

/// Every (scaling shape, allocator, pin) at 2×10^4 instructions on `alpha`:
/// the long single-function sweeps of the whole-lifetime allocators.
const SCALE_PINS: &[(&str, &str, u64)] = &[
    ("huge", "binpack", 0x90d831d6b8c9a546),
    ("huge", "two-pass", 0x6e75d4218aa3f9ee),
    ("huge", "coloring", 0x1704bab2f34ef2ff),
    ("huge", "poletto", 0xfad8c699282281d8),
    ("huge", "ion", 0xd6c0fbfb7a9a0d54),
    ("medium", "binpack", 0x173372c75300ad5c),
    ("medium", "two-pass", 0xd7f595000e586c87),
    ("medium", "coloring", 0x90642f4f766cbe98),
    ("medium", "poletto", 0x0912e518571f15f3),
    ("medium", "ion", 0x016bf8051089e581),
];

#[test]
fn scaling_output_is_pinned() {
    let mut got = Vec::new();
    for shape in ["huge", "medium"] {
        for a in ALLOCATOR_NAMES {
            got.push((shape, a, scaled_hash(shape, 20_000, a)));
        }
    }
    if got != SCALE_PINS {
        let table: String =
            got.iter().map(|(s, a, h)| format!("    (\"{s}\", \"{a}\", 0x{h:016x}),\n")).collect();
        panic!("allocated output changed; the current SCALE_PINS table is:\n{table}");
    }
}

/// Counts the point-feasibility victims an allocation unassigns.
#[derive(Default)]
struct UnassignCounter(usize);

impl TraceSink for UnassignCounter {
    fn event(&mut self, ev: &TraceEvent) {
        if matches!(ev, TraceEvent::PackUnassign { .. }) {
            self.0 += 1;
        }
    }
}

/// The scaling pins must cover the point-feasibility unassign path, where
/// register occupancy shrinks mid-sweep: a pinned shape whose traced
/// two-pass allocation unassigns at least one victim.
#[test]
fn scaling_pins_cover_the_feasibility_unassign_path() {
    let spec = MachineSpec::alpha_like();
    let mut sink = UnassignCounter::default();
    for shape in ["huge", "medium"] {
        let mut m = lsra_workloads::scaling::scale_module(shape, 20_000).unwrap();
        allocator_by_name("two-pass", 1, false)
            .unwrap()
            .allocate_module_traced(&mut m, &spec, &mut sink)
            .expect("two-pass has a traced path");
    }
    assert!(sink.0 > 0, "no pinned scaling shape unassigns a feasibility victim");
}

/// Counts ion's evictions, and the most splits any one temporary's bundles
/// took within one function.
#[derive(Default)]
struct BacktrackCounter {
    evictions: usize,
    splits: std::collections::HashMap<Temp, usize>,
    most_splits: usize,
}

impl TraceSink for BacktrackCounter {
    fn event(&mut self, ev: &TraceEvent) {
        match ev {
            TraceEvent::FunctionBegin { .. } => self.splits.clear(),
            TraceEvent::EvictBundle { .. } => self.evictions += 1,
            TraceEvent::SplitBundle { temp, .. } => {
                let n = self.splits.entry(*temp).or_default();
                *n += 1;
                self.most_splits = self.most_splits.max(*n);
            }
            _ => {}
        }
    }
}

/// The scaling pins must cover ion's backtracking paths, which the bounded
/// eviction search and the split-piece retry run through: a traced ion
/// allocation of the pinned `medium` shape evicts at least once, and splits
/// some temporary at least twice (a split piece that missed again).
#[test]
fn scaling_pins_cover_the_ion_backtracking_paths() {
    let spec = MachineSpec::alpha_like();
    let mut sink = BacktrackCounter::default();
    let mut m = lsra_workloads::scaling::scale_module("medium", 20_000).unwrap();
    allocator_by_name("ion", 1, false)
        .unwrap()
        .allocate_module_traced(&mut m, &spec, &mut sink)
        .expect("ion has a traced path");
    assert!(sink.evictions > 0, "the pinned medium shape never evicts under ion");
    assert!(sink.most_splits >= 2, "no split piece of the pinned medium shape splits again");
}

/// The golden pins must cover ion's point-feasibility demotion, where a
/// placed bundle is lifted out of its register after phase 3: a traced ion
/// allocation of the pinned workloads unassigns at least one victim.
#[test]
fn golden_pins_cover_ion_feasibility_demotion() {
    let mut sink = UnassignCounter::default();
    for w in lsra_workloads::all() {
        for machine in ["alpha", "small"] {
            let mut m = (w.build)();
            allocator_by_name("ion", 1, false)
                .unwrap()
                .allocate_module_traced(&mut m, &machine_by_name(machine), &mut sink)
                .expect("ion has a traced path");
        }
    }
    assert!(sink.0 > 0, "no pinned workload demotes an ion bundle for point feasibility");
}

/// Binpacking's per-definition sweep probes only registers whose hole can
/// still matter. A busy register is skipped until its occupant's segment
/// ends, or, with a pending hole owner, until that owner can be live
/// again. A dead register joins the never-bound ones, which fold into one
/// candidate. Without those two proofs these shapes cost 11-12 probes per
/// candidate; with them, under 2.
#[test]
fn binpack_sweep_probes_few_registers_per_candidate() {
    for (shape, insts) in [("medium", 20_000), ("huge", 30_000)] {
        let mut m = lsra_workloads::scaling::scale_module(shape, insts).unwrap();
        let stats = allocator_by_name("binpack", 1, false)
            .unwrap()
            .allocate_module(&mut m, &MachineSpec::alpha_like());
        assert!(
            stats.hole_probes <= 3 * stats.candidates as u64,
            "scale:{shape}:{insts}: {} hole probes for {} candidates",
            stats.hole_probes,
            stats.candidates
        );
    }
}

#[test]
fn allocated_output_is_pinned() {
    let mut got = Vec::new();
    for w in lsra_workloads::all() {
        for a in ALLOCATOR_NAMES {
            for m in ["alpha", "small"] {
                got.push((w.name, a, m, allocated_hash(w.name, a, m)));
            }
        }
    }
    if got != PINS {
        let table: String = got
            .iter()
            .map(|(w, a, m, h)| format!("    (\"{w}\", \"{a}\", \"{m}\", 0x{h:016x}),\n"))
            .collect();
        panic!("allocated output changed; the current PINS table is:\n{table}");
    }
}

/// `spilled_temps` counts the temporaries that own a spill slot, once each,
/// under every allocator: summed over a module's functions, it equals the
/// number of slots handed out.
#[test]
fn spilled_temps_counts_spill_slots() {
    for w in lsra_workloads::all() {
        for a in ALLOCATOR_NAMES {
            for machine in ["alpha", "small"] {
                let mut m = (w.build)();
                let stats = allocator_by_name(a, 1, false)
                    .unwrap()
                    .allocate_module(&mut m, &machine_by_name(machine));
                let slots: usize =
                    m.funcs.iter().map(|f| f.spill_slots.iter().flatten().count()).sum();
                assert_eq!(stats.spilled_temps, slots, "{} under {a} on {machine}", w.name);
            }
        }
    }
}

/// Parallel dispatch must be byte-identical to serial at any worker count,
/// including worker counts that exceed the core count and configurations
/// where the minimum-work threshold disables parallelism entirely.
#[test]
fn parallel_allocation_matches_serial() {
    let spec = MachineSpec::alpha_like();
    for name in ["doduc", "espresso", "fpppp"] {
        let w = lsra_workloads::by_name(name).unwrap();
        let base = (w.build)();
        let mut serial = base.clone();
        BinpackAllocator::new(BinpackConfig { workers: 1, ..Default::default() })
            .allocate_module(&mut serial, &spec);
        let serial_text = serial.to_string();
        for workers in [2, 3, 7] {
            let mut par = base.clone();
            // Threshold 0 forces the parallel dispatch even on these small
            // workloads, so the test exercises the multi-worker path.
            BinpackAllocator::new(BinpackConfig {
                workers,
                parallel_threshold: 0,
                ..Default::default()
            })
            .allocate_module(&mut par, &spec);
            assert_eq!(serial_text, par.to_string(), "{name} differs at {workers} workers");
        }
    }
}

/// The scaling shapes allocate identically serial vs parallel too — this
/// exercises the single-huge-function path where parallelism lives inside
/// `allocate_function` rather than across functions.
#[test]
fn scaling_shapes_parallel_matches_serial() {
    let spec = MachineSpec::alpha_like();
    for shape in ["medium", "huge"] {
        let base = lsra_workloads::scaling::scale_module(shape, 20_000).unwrap();
        let mut serial = base.clone();
        BinpackAllocator::new(BinpackConfig { workers: 1, ..Default::default() })
            .allocate_module(&mut serial, &spec);
        let mut par = base.clone();
        BinpackAllocator::new(BinpackConfig {
            workers: 4,
            parallel_threshold: 0,
            ..Default::default()
        })
        .allocate_module(&mut par, &spec);
        assert_eq!(serial.to_string(), par.to_string(), "{shape} differs serial vs parallel");
    }
}
