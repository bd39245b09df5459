//! **Second-chance binpacking** — the linear-scan register allocator of
//! Omri Traub, Glenn Holloway & Michael D. Smith, *Quality and Speed in
//! Linear-scan Register Allocation* (PLDI 1998).
//!
//! The allocator sweeps the code once in linear order, allocating registers
//! **and rewriting operands in the same pass**. Registers are bins; a
//! temporary packs into a register whose *lifetime hole* can hold it.
//! When pressure forces a spill, the victim's lifetime is *split*: already
//! rewritten references keep their register and only future references see
//! memory — and at the next reference the spilled temporary gets a *second
//! chance* at a register (a reload that then stays put, or a definition
//! whose store is postponed and often never issued). A final *resolution*
//! pass repairs the linear model's assumptions across CFG edges and runs
//! one bit-vector dataflow (`USED_C`) to keep store suppression sound.
//!
//! The crate also provides the shared [`RegisterAllocator`] interface and
//! [`AllocStats`] used by the graph-coloring baseline and the evaluation
//! harness, plus the traditional two-pass binpacking comparator
//! ([`BinpackAllocator::two_pass`], §3.1 of the paper).
//!
//! # Examples
//!
//! Allocate a small function and inspect the result:
//!
//! ```
//! use lsra_core::{BinpackAllocator, RegisterAllocator};
//! use lsra_ir::{FunctionBuilder, MachineSpec, RegClass};
//!
//! let spec = MachineSpec::alpha_like();
//! let mut b = FunctionBuilder::new(&spec, "sum3", &[RegClass::Int; 3]);
//! let (x, y, z) = (b.param(0), b.param(1), b.param(2));
//! let t = b.int_temp("t");
//! b.add(t, x, y);
//! b.add(t, t, z);
//! b.ret(Some(t.into()));
//! let mut f = b.finish();
//!
//! let stats = BinpackAllocator::default().allocate_function(&mut f, &spec);
//! assert!(f.allocated);
//! assert_eq!(stats.inserted_total(), 0, "no spills at this pressure");
//! println!("{f}");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod allocator;
mod config;
mod parallel_move;
pub mod point;
pub mod postopt;
mod resolve;
mod scan;
mod scratch;
mod stats;
mod two_pass;

pub use allocator::BinpackAllocator;
pub use config::{BinpackConfig, ConsistencyMode};
/// The sink that records nothing, for callers of the [`point`] passes that
/// do not trace.
pub use lsra_trace::NoopSink;
pub use parallel_move::{sequentialize, sequentialize_into, EdgeOp};
pub use postopt::{optimize_spill_code, PostOptStats};
pub use resolve::{ensure_slot, EdgeRepair};
pub use scratch::AllocScratch;
pub use stats::{AllocStats, AllocTimings, Phase, RegisterAllocator, PHASE_NAMES};

#[cfg(test)]
mod tests {
    use super::*;
    use lsra_analysis::remove_identity_moves;
    use lsra_ir::{Cond, ExtFn, FunctionBuilder, MachineSpec, Module, ModuleBuilder, RegClass};
    use lsra_vm::{run_module, verify_allocation, VmOptions};

    fn verify(module: &Module, spec: &MachineSpec, config: BinpackConfig, input: &[u8]) {
        let mut allocated = module.clone();
        let alloc = BinpackAllocator::new(config);
        alloc.allocate_module(&mut allocated, spec);
        for id in allocated.func_ids().collect::<Vec<_>>() {
            remove_identity_moves(allocated.func_mut(id));
            allocated.func(id).validate().unwrap_or_else(|e| panic!("invalid output: {e}"));
        }
        verify_allocation(module, &allocated, spec, input, VmOptions::default())
            .unwrap_or_else(|m| panic!("allocation broke {}: {m}\n{allocated}", module.name));
    }

    fn both_configs(module: &Module, spec: &MachineSpec, input: &[u8]) {
        verify(module, spec, BinpackConfig::default(), input);
        verify(module, spec, BinpackConfig::two_pass(), input);
        verify(
            module,
            spec,
            BinpackConfig { consistency: ConsistencyMode::Conservative, ..Default::default() },
            input,
        );
    }

    fn single(f: lsra_ir::Function, mem: usize) -> Module {
        let mut mb = ModuleBuilder::new("t", mem);
        let id = mb.add(f);
        mb.entry(id);
        mb.finish()
    }

    #[test]
    fn straight_line_no_pressure() {
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
        both_configs(&m, &spec, &[]);
        let mut alloc = m.clone();
        let stats = BinpackAllocator::default().allocate_module(&mut alloc, &spec);
        assert_eq!(stats.inserted_total(), 0);
    }

    #[test]
    fn high_pressure_straight_line_spills_and_verifies() {
        // More live temps than registers on a tiny machine.
        let spec = MachineSpec::small(4, 2);
        let mut b = FunctionBuilder::new(&spec, "main", &[]);
        let temps: Vec<_> = (0..12).map(|i| b.int_temp(&format!("v{i}"))).collect();
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
        let mut alloc = m.clone();
        let stats = BinpackAllocator::default().allocate_module(&mut alloc, &spec);
        assert!(stats.inserted_total() > 0, "must spill at this pressure");
        both_configs(&m, &spec, &[]);
        let r = run_module(&m, &spec, &[]).unwrap();
        assert_eq!(r.ret, Some((1..=12).sum::<i64>()));
    }

    #[test]
    fn loop_with_branch_resolution() {
        let spec = MachineSpec::small(4, 2);
        let mut b = FunctionBuilder::new(&spec, "main", &[]);
        let n = b.int_temp("n");
        let acc = b.int_temp("acc");
        let k1 = b.int_temp("k1");
        let k2 = b.int_temp("k2");
        let k3 = b.int_temp("k3");
        b.movi(n, 20);
        b.movi(acc, 0);
        b.movi(k1, 3);
        b.movi(k2, 5);
        b.movi(k3, 7);
        let head = b.block();
        let odd = b.block();
        let even = b.block();
        let latch = b.block();
        let exit = b.block();
        b.jump(head);
        b.switch_to(head);
        let bit = b.int_temp("bit");
        let two = b.int_temp("two");
        b.movi(two, 2);
        b.op2(lsra_ir::OpCode::Rem, bit, n, two);
        b.branch(Cond::Ne, bit, odd, even);
        b.switch_to(odd);
        b.add(acc, acc, k1);
        b.add(acc, acc, k2);
        b.jump(latch);
        b.switch_to(even);
        b.add(acc, acc, k3);
        b.jump(latch);
        b.switch_to(latch);
        b.addi(n, n, -1);
        b.branch(Cond::Gt, n, head, exit);
        b.switch_to(exit);
        b.ret(Some(acc.into()));
        let m = single(b.finish(), 0);
        both_configs(&m, &spec, &[]);
    }

    #[test]
    fn values_live_across_calls() {
        // The wc pattern (§3.1): temporaries live through a loop containing
        // a call.
        let spec = MachineSpec::small(6, 2);
        let mut b = FunctionBuilder::new(&spec, "main", &[]);
        let sums: Vec<_> = (0..4).map(|i| b.int_temp(&format!("s{i}"))).collect();
        for &s in &sums {
            b.movi(s, 0);
        }
        let head = b.block();
        let body = b.block();
        let exit = b.block();
        b.jump(head);
        b.switch_to(head);
        let c = b.call_ext(ExtFn::GetChar, &[], Some(RegClass::Int)).unwrap();
        b.branch(Cond::Lt, c, exit, body);
        b.switch_to(body);
        for &s in &sums {
            b.add(s, s, c);
        }
        b.jump(head);
        b.switch_to(exit);
        let total = b.int_temp("total");
        b.movi(total, 0);
        for &s in &sums {
            b.add(total, total, s);
        }
        b.ret(Some(total.into()));
        let m = single(b.finish(), 0);
        both_configs(&m, &spec, b"abcde");
        let r = run_module(&m, &spec, b"abcde").unwrap();
        let expected: i64 = 4 * b"abcde".iter().map(|&c| c as i64).sum::<i64>();
        assert_eq!(r.ret, Some(expected));
    }

    #[test]
    fn float_and_int_pressure_together() {
        let spec = MachineSpec::small(4, 4);
        let mut b = FunctionBuilder::new(&spec, "main", &[]);
        let fs: Vec<_> = (0..8).map(|i| b.float_temp(&format!("f{i}"))).collect();
        let is_: Vec<_> = (0..8).map(|i| b.int_temp(&format!("i{i}"))).collect();
        for (k, &t) in fs.iter().enumerate() {
            b.movf(t, k as f64 + 0.5);
        }
        for (k, &t) in is_.iter().enumerate() {
            b.movi(t, k as i64 + 1);
        }
        let facc = b.float_temp("facc");
        b.movf(facc, 0.0);
        for &t in &fs {
            b.op2(lsra_ir::OpCode::FAdd, facc, facc, t);
        }
        let iacc = b.int_temp("iacc");
        b.movi(iacc, 0);
        for &t in &is_ {
            b.add(iacc, iacc, t);
        }
        let fi = b.int_temp("fi");
        b.op1(lsra_ir::OpCode::FloatToInt, fi, facc);
        let total = b.int_temp("total");
        b.add(total, iacc, fi);
        b.ret(Some(total.into()));
        let m = single(b.finish(), 0);
        both_configs(&m, &spec, &[]);
        let r = run_module(&m, &spec, &[]).unwrap();
        // floats: 0.5+1.5+...+7.5 = 32; ints: 36
        assert_eq!(r.ret, Some(68));
    }

    #[test]
    fn register_swap_across_edge_is_resolved() {
        // Rotating values around a loop can require swap resolution across
        // the back edge.
        let spec = MachineSpec::small(3, 2);
        let mut b = FunctionBuilder::new(&spec, "main", &[]);
        let x = b.int_temp("x");
        let y = b.int_temp("y");
        let n = b.int_temp("n");
        b.movi(x, 1);
        b.movi(y, 2);
        b.movi(n, 9);
        let head = b.block();
        let exit = b.block();
        b.jump(head);
        b.switch_to(head);
        // rotate: (x, y) = (y, x+y)
        let t = b.int_temp("t");
        b.add(t, x, y);
        b.mov(x, y);
        b.mov(y, t);
        b.addi(n, n, -1);
        b.branch(Cond::Gt, n, head, exit);
        b.switch_to(exit);
        let r = b.int_temp("r");
        b.add(r, x, y);
        b.ret(Some(r.into()));
        let m = single(b.finish(), 0);
        both_configs(&m, &spec, &[]);
        let r = run_module(&m, &spec, &[]).unwrap();
        // (1,2) rotated 9 times -> (89,144); x+y = 233.
        assert_eq!(r.ret, Some(233));
    }

    #[test]
    fn stats_report_spills() {
        let spec = MachineSpec::small(2, 2);
        let mut b = FunctionBuilder::new(&spec, "main", &[]);
        let temps: Vec<_> = (0..6).map(|i| b.int_temp(&format!("v{i}"))).collect();
        for (i, &t) in temps.iter().enumerate() {
            b.movi(t, i as i64);
        }
        let acc = b.int_temp("acc");
        b.movi(acc, 0);
        for &t in &temps {
            b.add(acc, acc, t);
        }
        b.ret(Some(acc.into()));
        let mut m = single(b.finish(), 0);
        let stats = BinpackAllocator::default().allocate_module(&mut m, &spec);
        assert!(stats.spilled_temps > 0);
        assert!(stats.evictions > 0);
        assert!(stats.inserted_count(lsra_ir::SpillTag::EvictLoad) > 0);
        assert!(stats.candidates >= 7);
    }

    #[test]
    fn move_coalescing_binds_param_moves() {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "leaf", &[RegClass::Int]);
        let p = b.param(0);
        let r = b.int_temp("r");
        b.add(r, p, p);
        b.ret(Some(r.into()));
        let mut f = b.finish();
        let stats = BinpackAllocator::default().allocate_function(&mut f, &spec);
        assert!(stats.moves_coalesced >= 1, "parameter move should coalesce");
        let removed = remove_identity_moves(&mut f);
        assert!(removed >= 1, "coalesced move becomes an identity move");
    }
}
