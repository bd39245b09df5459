//! **Simple linear scan** in the style of Poletto, Engler & Kaashoek's `tcc`
//! (§4 of the paper): the related-work comparator.
//!
//! The allocator walks a list of whole lifetime intervals sorted by start
//! point and keeps an *active* set; when too many lifetimes compete, the one
//! with the furthest end point is spilled to memory for its entire lifetime.
//! "No attempt is made to take advantage of lifetime holes or to allocate
//! partial lifetimes."
//!
//! Extensions needed for a real calling convention (absent from `tcc`'s
//! single-register-class setting) are handled conservatively: an interval
//! may only use a register none of whose precolored-blocked segments (call
//! clobbers included) overlap the interval — so values live across calls
//! compete for callee-saved registers only, with no second chance.
//!
//! # Examples
//!
//! ```
//! use lsra_core::RegisterAllocator;
//! use lsra_ir::{FunctionBuilder, MachineSpec, RegClass};
//! use lsra_poletto::PolettoAllocator;
//!
//! let spec = MachineSpec::alpha_like();
//! let mut b = FunctionBuilder::new(&spec, "f", &[RegClass::Int]);
//! let x = b.param(0);
//! let y = b.int_temp("y");
//! b.add(y, x, x);
//! b.ret(Some(y.into()));
//! let mut f = b.finish();
//!
//! let stats = PolettoAllocator::default().allocate_function(&mut f, &spec);
//! assert!(f.allocated);
//! assert_eq!(stats.inserted_total(), 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::time::Instant;

use lsra_analysis::{Lifetimes, Point, Segment};
use lsra_core::point::{self, Occupancy, PointScratch};
use lsra_core::{AllocStats, NoopSink, RegisterAllocator};
use lsra_ir::{Function, MachineSpec, Temp};

/// The `tcc`-style linear-scan allocator.
#[derive(Clone, Debug, Default)]
pub struct PolettoAllocator;

impl PolettoAllocator {
    /// Creates the allocator.
    pub fn new() -> Self {
        PolettoAllocator
    }
}

/// The linear scan over whole lifetime intervals sorted by start.
fn scan(occ: &mut Occupancy, f: &Function, spec: &MachineSpec, lt: &Lifetimes) {
    let mut order: Vec<(Segment, Temp)> = (0..f.num_temps() as u32)
        .map(Temp)
        .filter_map(|t| lt.lifetime(t).map(|s| (s, t)))
        .collect();
    order.sort_unstable_by_key(|(s, t)| (s.start, t.0));
    for (iv, t) in order {
        let class = f.temp_class(t);
        // First fit among registers with no conflicting occupancy over the
        // whole interval.
        if let Some(d) = occ.first_fit(class, &[iv]) {
            occ.assign(t, d, &[iv]);
            continue;
        }
        // Spill the active interval with the furthest end; if none ends
        // later than the current interval, spill the current one. A victim
        // `a` that ends later holds its register over its whole interval,
        // which then contains `iv` (it holds the register at `iv.start`), and
        // a register's occupants are disjoint: with `a` gone, the register
        // is free over `iv`, so no register needs a further check.
        let mut victim: Option<(Point, Temp, usize)> = None;
        for d in spec.reg_indices(class) {
            let Some(Some(a)) = occ.owner_at(d, iv.start) else {
                continue;
            };
            let a_iv = lt.lifetime(a).expect("active interval exists");
            if victim.is_none_or(|(end, _, _)| a_iv.end > end) {
                victim = Some((a_iv.end, a, d));
            }
        }
        match victim {
            Some((end, a, d)) if end > iv.end => {
                occ.unassign(a);
                occ.assign(t, d, &[iv]);
            }
            _ => occ.unassign(t),
        }
    }
}

impl RegisterAllocator for PolettoAllocator {
    fn name(&self) -> &str {
        "simple linear scan (Poletto)"
    }

    fn allocate_function(&self, f: &mut Function, spec: &MachineSpec) -> AllocStats {
        let start = Instant::now();
        let mut stats = AllocStats { candidates: f.num_temps(), ..Default::default() };
        let lt = Lifetimes::of(f, spec);
        let mut occ = Occupancy::new(f, &lt, spec);
        scan(&mut occ, f, spec, &lt);
        // Spilled references must always find scratch registers; the shared
        // fixpoint spills further victims if not.
        point::ensure_point_feasibility(&mut occ, f, &lt, spec, &mut NoopSink);
        let mut scratch = PointScratch::default();
        point::rewrite(&mut occ, f, &lt, spec, &mut stats, &mut scratch, &mut NoopSink);
        f.allocated = true;
        stats.alloc_seconds = start.elapsed().as_secs_f64();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsra_ir::{Cond, ExtFn, FunctionBuilder, Module, ModuleBuilder, RegClass};
    use lsra_vm::{run_module, verify_allocation, VmOptions};

    fn verify(module: &Module, spec: &MachineSpec, input: &[u8]) -> AllocStats {
        let mut allocated = module.clone();
        let stats = PolettoAllocator.allocate_module(&mut allocated, spec);
        for id in allocated.func_ids().collect::<Vec<_>>() {
            allocated.func(id).validate().unwrap_or_else(|e| panic!("invalid output: {e}"));
        }
        verify_allocation(module, &allocated, spec, input, VmOptions::default())
            .unwrap_or_else(|m| panic!("poletto broke {}: {m}\n{allocated}", module.name));
        stats
    }

    fn single(f: lsra_ir::Function) -> Module {
        let mut mb = ModuleBuilder::new("t", 0);
        let id = mb.add(f);
        mb.entry(id);
        mb.finish()
    }

    #[test]
    fn simple_function() {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "main", &[]);
        let x = b.int_temp("x");
        let y = b.int_temp("y");
        b.movi(x, 20);
        b.addi(y, x, 22);
        b.ret(Some(y.into()));
        let m = single(b.finish());
        verify(&m, &spec, &[]);
        assert_eq!(run_module(&m, &spec, &[]).unwrap().ret, Some(42));
    }

    #[test]
    fn spills_longest_interval_under_pressure() {
        let spec = MachineSpec::small(3, 2);
        let mut b = FunctionBuilder::new(&spec, "main", &[]);
        let long = b.int_temp("long");
        b.movi(long, 100);
        let temps: Vec<_> = (0..6).map(|i| b.int_temp(&format!("v{i}"))).collect();
        for (i, &t) in temps.iter().enumerate() {
            b.movi(t, i as i64);
        }
        let acc = b.int_temp("acc");
        b.movi(acc, 0);
        for &t in &temps {
            b.add(acc, acc, t);
        }
        b.add(acc, acc, long); // long lives through everything
        b.ret(Some(acc.into()));
        let m = single(b.finish());
        let stats = verify(&m, &spec, &[]);
        assert!(stats.spilled_temps > 0);
        assert_eq!(run_module(&m, &spec, &[]).unwrap().ret, Some(115));
    }

    #[test]
    fn call_crossing_values_avoid_caller_saved() {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "main", &[]);
        let keep = b.int_temp("keep");
        b.movi(keep, 5);
        b.call_ext(ExtFn::GetChar, &[], Some(RegClass::Int));
        let out = b.int_temp("out");
        b.add(out, keep, keep);
        b.ret(Some(out.into()));
        let m = single(b.finish());
        verify(&m, &spec, &[]);
        let mut allocated = m.clone();
        PolettoAllocator.allocate_module(&mut allocated, &spec);
        assert_eq!(run_module(&allocated, &spec, &[]).unwrap().ret, Some(10));
    }

    #[test]
    fn no_lifetime_holes_are_exploited() {
        // Two values with perfectly interleaving holes: second-chance
        // binpacking fits both in one register; Poletto's whole intervals
        // overlap and need two (or spill). With exactly 2 registers plus
        // pressure, Poletto spills where binpacking wouldn't — the defining
        // difference called out in §4.
        let spec = MachineSpec::small(2, 2);
        let mut b = FunctionBuilder::new(&spec, "main", &[]);
        let a = b.int_temp("a");
        let c = b.int_temp("c");
        let d = b.int_temp("d");
        b.movi(a, 1);
        let u1 = b.int_temp("u1");
        b.add(u1, a, a); // a's first segment ends
        b.movi(c, 2); // c lives inside a's hole
        let u2 = b.int_temp("u2");
        b.add(u2, c, c);
        b.movi(a, 3); // a returns
        b.add(d, a, u1);
        b.add(d, d, u2);
        b.ret(Some(d.into()));
        let m = single(b.finish());
        let stats = verify(&m, &spec, &[]);
        // Poletto treats a's lifetime as one interval covering c entirely;
        // combined with u1/u2 pressure it must spill on 2 registers.
        assert!(stats.spilled_temps > 0, "whole-interval model must spill here");
        assert_eq!(run_module(&m, &spec, &[]).unwrap().ret, Some(3 + 2 + 4));
    }

    #[test]
    fn furthest_end_heuristic_spills_long_intervals() {
        let spec = MachineSpec::small(3, 2);
        let mut b = FunctionBuilder::new(&spec, "main", &[]);
        // One long value and a stream of short pairs.
        let long = b.int_temp("long");
        b.movi(long, 50);
        let acc = b.int_temp("acc0");
        b.movi(acc, 0);
        for i in 0..5 {
            let s = b.int_temp(&format!("s{i}"));
            b.movi(s, i);
            let t = b.int_temp(&format!("t{i}"));
            b.movi(t, i + 1);
            let n = b.int_temp(&format!("n{i}"));
            b.add(n, s, t);
            b.add(acc, acc, n);
        }
        b.add(acc, acc, long);
        b.ret(Some(acc.into()));
        let m = single(b.finish());
        let stats = verify(&m, &spec, &[]);
        // The long interval is the canonical victim; the short ones fit.
        assert!(stats.spilled_temps >= 1);
        let expected: i64 = (0..5).map(|i| 2 * i + 1).sum::<i64>() + 50;
        assert_eq!(run_module(&m, &spec, &[]).unwrap().ret, Some(expected));
    }

    #[test]
    fn loop_works() {
        let spec = MachineSpec::small(4, 2);
        let mut b = FunctionBuilder::new(&spec, "main", &[]);
        let n = b.int_temp("n");
        let acc = b.int_temp("acc");
        b.movi(n, 10);
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
        let m = single(b.finish());
        verify(&m, &spec, &[]);
        assert_eq!(run_module(&m, &spec, &[]).unwrap().ret, Some(55));
    }
}
