//! **Iterated register coalescing** — the George & Appel graph-coloring
//! allocator (TOPLAS 1996) used as the paper's baseline (§3).
//!
//! A pure coloring approach in the Chaitin/Briggs style whose departure is
//! integrating coalescing into the simplification phase rather than running
//! it repeatedly beforehand. Per the paper's implementation notes:
//!
//! * the adjacency relation is a **lower-triangular bit matrix**;
//! * liveness is computed **once**, before allocation — spill code only
//!   creates block-local temporaries, which stay out of the bit vectors;
//! * the integer and floating-point files are colored **separately** (on
//!   the Alpha, values cross files only through memory).
//!
//! # Examples
//!
//! ```
//! use lsra_coloring::ColoringAllocator;
//! use lsra_core::RegisterAllocator;
//! use lsra_ir::{FunctionBuilder, MachineSpec, RegClass};
//!
//! let spec = MachineSpec::alpha_like();
//! let mut b = FunctionBuilder::new(&spec, "f", &[RegClass::Int]);
//! let x = b.param(0);
//! let y = b.int_temp("y");
//! b.add(y, x, x);
//! b.ret(Some(y.into()));
//! let mut f = b.finish();
//!
//! let stats = ColoringAllocator::default().allocate_function(&mut f, &spec);
//! assert!(f.allocated);
//! assert!(f.validate().is_ok(), "no virtual operand is left");
//! assert_eq!(stats.candidates, 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod color;
mod matrix;

pub use matrix::TriangularBitMatrix;

use std::time::Instant;

use lsra_analysis::{Cfg, Dominators, Liveness, LoopInfo};
use lsra_core::{AllocStats, RegisterAllocator};
use lsra_ir::{Function, MachineSpec, PhysReg, Reg, RegClass, SpillTag};

/// The graph-coloring register allocator.
#[derive(Clone, Debug, Default)]
pub struct ColoringAllocator;

impl ColoringAllocator {
    /// Creates the allocator.
    pub fn new() -> Self {
        ColoringAllocator
    }
}

impl RegisterAllocator for ColoringAllocator {
    fn name(&self) -> &str {
        "graph coloring (iterated register coalescing)"
    }

    fn allocate_function(&self, f: &mut Function, spec: &MachineSpec) -> AllocStats {
        let start = Instant::now();
        let mut stats = AllocStats { candidates: f.num_temps(), ..Default::default() };
        let cfg = Cfg::compute(f); // spill rewriting adds no block
        let loops = LoopInfo::compute(f, &cfg, &Dominators::compute(f, &cfg));
        let mut assignment: Vec<(lsra_ir::Temp, PhysReg)> = Vec::new();
        let mut coalesced = 0u64;
        // Liveness once per function (§3): spill temporaries are block-local
        // and never live out, and one class's spill rewrite touches no
        // temporary of the other class.
        let live = Liveness::compute_on(f, &cfg, 1);

        for class in RegClass::ALL {
            let k = spec.num_regs(class) as usize;
            let mut excluded = vec![false; f.num_temps()];
            let mut spill_marker = vec![false; f.num_temps()];
            loop {
                stats.iterations += 1;
                let round = color::Round::new(f, &live, &loops, class, k, &excluded, &spill_marker);
                let temps = round.temps.clone();
                let result = round.run(spec, &mut coalesced);
                stats.interference_edges += result.edges;
                if result.spilled.is_empty() {
                    for (i, &t) in temps.iter().enumerate() {
                        let c = result.colors[i]
                            .unwrap_or_else(|| panic!("uncolored unspilled node for {t}"));
                        assignment.push((t, PhysReg::new(class, c)));
                    }
                    break;
                }
                for &t in &result.spilled {
                    excluded[t.index()] = true;
                    stats.spilled_temps += 1;
                }
                let mut inserted = Vec::new();
                let created = color::rewrite_spills(f, &result.spilled, &mut inserted);
                for (tag, n) in inserted {
                    match tag {
                        SpillTag::EvictLoad => stats.inserted[1] += n,
                        SpillTag::EvictStore => stats.inserted[2] += n,
                        _ => unreachable!(),
                    }
                }
                excluded.resize(f.num_temps(), false);
                spill_marker.resize(f.num_temps(), false);
                for t in created {
                    spill_marker[t.index()] = true;
                }
            }
        }
        stats.moves_coalesced = coalesced;

        // Final rewrite: replace every temporary operand with its color.
        let mut reg_of: Vec<Option<PhysReg>> = vec![None; f.num_temps()];
        for (t, p) in assignment {
            reg_of[t.index()] = Some(p);
        }
        for b in f.block_ids().collect::<Vec<_>>() {
            for ins in &mut f.block_mut(b).insts {
                let rewrite = |r: &mut Reg| {
                    if let Reg::Temp(t) = *r {
                        *r = Reg::Phys(
                            reg_of[t.index()]
                                .unwrap_or_else(|| panic!("no register assigned to {t}")),
                        );
                    }
                };
                ins.inst.for_each_use_mut(rewrite);
                ins.inst.for_each_def_mut(rewrite);
            }
        }
        f.allocated = true;
        debug_assert_eq!(f.validate(), Ok(()), "allocation left an invalid function");
        stats.alloc_seconds = start.elapsed().as_secs_f64();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsra_analysis::remove_identity_moves;
    use lsra_ir::{Cond, ExtFn, FunctionBuilder, Module, ModuleBuilder};
    use lsra_vm::{run_module, verify_allocation, VmOptions};

    fn verify(module: &Module, spec: &MachineSpec, input: &[u8]) -> AllocStats {
        let mut allocated = module.clone();
        let stats = ColoringAllocator.allocate_module(&mut allocated, spec);
        for id in allocated.func_ids().collect::<Vec<_>>() {
            remove_identity_moves(allocated.func_mut(id));
            allocated.func(id).validate().unwrap_or_else(|e| panic!("invalid output: {e}"));
        }
        verify_allocation(module, &allocated, spec, input, VmOptions::default())
            .unwrap_or_else(|m| panic!("coloring broke {}: {m}\n{allocated}", module.name));
        stats
    }

    fn single(f: lsra_ir::Function, mem: usize) -> Module {
        let mut mb = ModuleBuilder::new("t", mem);
        let id = mb.add(f);
        mb.entry(id);
        mb.finish()
    }

    #[test]
    fn straight_line_no_spills() {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "main", &[]);
        let x = b.int_temp("x");
        let y = b.int_temp("y");
        let z = b.int_temp("z");
        b.movi(x, 6);
        b.movi(y, 7);
        b.mul(z, x, y);
        b.ret(Some(z.into()));
        let m = single(b.finish(), 0);
        let stats = verify(&m, &spec, &[]);
        assert_eq!(stats.inserted_total(), 0);
        assert_eq!(run_module(&m, &spec, &[]).unwrap().ret, Some(42));
    }

    #[test]
    fn pressure_forces_spills() {
        let spec = MachineSpec::small(3, 2);
        let mut b = FunctionBuilder::new(&spec, "main", &[]);
        let temps: Vec<_> = (0..10).map(|i| b.int_temp(&format!("v{i}"))).collect();
        for (i, &t) in temps.iter().enumerate() {
            b.movi(t, i as i64 + 1);
        }
        let acc = b.int_temp("acc");
        b.movi(acc, 0);
        for &t in &temps {
            b.add(acc, acc, t);
        }
        b.ret(Some(acc.into()));
        let m = single(b.finish(), 0);
        let stats = verify(&m, &spec, &[]);
        assert!(stats.spilled_temps > 0);
        assert!(stats.iterations >= 3, "spilling forces extra rounds");
        assert_eq!(run_module(&m, &spec, &[]).unwrap().ret, Some(55));
    }

    #[test]
    fn coalesces_parameter_moves() {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "leaf", &[RegClass::Int]);
        let p = b.param(0);
        let r = b.int_temp("r");
        b.add(r, p, p);
        b.ret(Some(r.into()));
        let mut f = b.finish();
        let stats = ColoringAllocator.allocate_function(&mut f, &spec);
        assert!(stats.moves_coalesced >= 1);
        assert!(remove_identity_moves(&mut f) >= 1);
    }

    #[test]
    fn values_across_calls_use_callee_saved() {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "main", &[]);
        let keep = b.int_temp("keep");
        b.movi(keep, 11);
        b.call_ext(ExtFn::GetChar, &[], Some(RegClass::Int));
        let out = b.int_temp("out");
        b.add(out, keep, keep);
        b.ret(Some(out.into()));
        let m = single(b.finish(), 0);
        verify(&m, &spec, &[]);
        let mut allocated = m.clone();
        ColoringAllocator.allocate_module(&mut allocated, &spec);
        let r = run_module(&allocated, &spec, &[]).unwrap();
        assert_eq!(r.ret, Some(22));
    }

    #[test]
    fn loops_and_branches() {
        let spec = MachineSpec::small(4, 2);
        let mut b = FunctionBuilder::new(&spec, "main", &[]);
        let n = b.int_temp("n");
        let acc = b.int_temp("acc");
        b.movi(n, 15);
        b.movi(acc, 0);
        let head = b.block();
        let exit = b.block();
        b.jump(head);
        b.switch_to(head);
        b.add(acc, acc, n);
        b.addi(n, n, -1);
        b.branch(Cond::Gt, n, head, exit);
        b.switch_to(exit);
        b.ret(Some(acc.into()));
        let m = single(b.finish(), 0);
        verify(&m, &spec, &[]);
        assert_eq!(run_module(&m, &spec, &[]).unwrap().ret, Some(120));
    }

    #[test]
    fn float_class_is_colored_independently() {
        let spec = MachineSpec::small(3, 3);
        let mut b = FunctionBuilder::new(&spec, "main", &[]);
        let a = b.float_temp("a");
        let c = b.float_temp("c");
        b.movf(a, 2.0);
        b.movf(c, 8.0);
        let d = b.float_temp("d");
        b.op2(lsra_ir::OpCode::FMul, d, a, c);
        let i = b.int_temp("i");
        b.op1(lsra_ir::OpCode::FloatToInt, i, d);
        b.ret(Some(i.into()));
        let m = single(b.finish(), 0);
        verify(&m, &spec, &[]);
        assert_eq!(run_module(&m, &spec, &[]).unwrap().ret, Some(16));
    }

    #[test]
    fn interference_edges_are_counted() {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "main", &[]);
        let xs: Vec<_> = (0..5).map(|i| b.int_temp(&format!("x{i}"))).collect();
        for (i, &t) in xs.iter().enumerate() {
            b.movi(t, i as i64);
        }
        let acc = b.int_temp("acc");
        b.movi(acc, 0);
        for &t in &xs {
            b.add(acc, acc, t);
        }
        b.ret(Some(acc.into()));
        let mut f = b.finish();
        let stats = ColoringAllocator.allocate_function(&mut f, &spec);
        // x0..x4 all overlap each other: at least C(5,2) = 10 edges.
        assert!(stats.interference_edges >= 10, "got {}", stats.interference_edges);
    }
}
