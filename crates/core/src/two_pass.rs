//! Traditional two-pass binpacking (§3.1's comparator).
//!
//! "A version of our allocator that assigns a whole lifetime to either
//! memory or register. This implementation still takes advantage of lifetime
//! holes during allocation." The first pass walks lifetimes in linear start
//! order and bin-packs each whole lifetime (its live segments) into a
//! register's free intervals, or spills it to memory for its entire
//! lifetime. References to spilled temporaries become *point lifetimes*: a
//! load into a scratch register before each use and a store after each
//! definition — with no store avoidance and no second chances, which is
//! precisely the behaviour the paper contrasts against (wc's 38% slowdown).

use lsra_analysis::{Cfg, Dominators, Lifetimes, Liveness, LoopInfo, Point};
use lsra_ir::{Function, MachineSpec, Temp};
use lsra_trace::{TraceEvent, TraceSink};

use crate::config::BinpackConfig;
use crate::point::{self, Occupancy};
use crate::scratch::AllocScratch;
use crate::stats::{AllocStats, Phase, PhaseTimer};

/// Pass 1: bin-pack whole lifetimes in start order; first fit.
fn pack(
    occ: &mut Occupancy,
    f: &Function,
    spec: &MachineSpec,
    lt: &Lifetimes,
    sink: &mut dyn TraceSink,
) {
    // Start order, ties by temp number.
    let mut order: Vec<(Point, Temp)> = (0..f.num_temps() as u32)
        .map(Temp)
        .filter_map(|t| lt.lifetime(t).map(|s| (s.start, t)))
        .collect();
    order.sort_unstable();
    for (_, t) in order {
        let segs = lt.segments(t);
        // The first segment settles most registers through the start-order
        // cursor; only a register free there checks the remaining segments.
        let (first, rest) = (segs[0], &segs[1..]);
        let choice = occ.first_fit(f.temp_class(t), first.start.0, first.end.0, |map| {
            rest.iter().all(|s| !map.overlaps(s.start.0, s.end.0))
        });
        match choice {
            Some(d) => {
                if sink.enabled() {
                    sink.event(&TraceEvent::PackAssign { temp: t, reg: spec.reg_at(d) });
                }
                occ.assign(t, d, segs);
            }
            None => {
                if sink.enabled() {
                    sink.event(&TraceEvent::PackSpill { temp: t });
                }
                occ.unassign(t);
            }
        }
    }
}

/// Runs traditional two-pass binpacking over `f`.
pub(crate) fn allocate(
    f: &mut Function,
    spec: &MachineSpec,
    cfg: BinpackConfig,
    stats: &mut AllocStats,
    scratch: &mut AllocScratch,
    sink: &mut dyn TraceSink,
) {
    let mut timer = PhaseTimer::new(cfg.time_phases);
    let graph = Cfg::compute(f);
    let loops = LoopInfo::compute(f, &graph, &Dominators::compute(f, &graph));
    timer.mark_traced(stats, Phase::Order, sink);
    let live = Liveness::compute_on(f, &graph, cfg.function_workers(f.num_insts()));
    timer.mark_traced(stats, Phase::Liveness, sink);
    let lt = Lifetimes::compute_in(f, &live, &loops, spec, &mut scratch.analysis);
    timer.mark_traced(stats, Phase::Lifetimes, sink);
    stats.candidates = f.num_temps();

    let mut occ = Occupancy::new(f, &lt, spec, &mut scratch.point);
    pack(&mut occ, f, spec, &lt, sink);
    // Pass 1.5: free enough registers at every instruction for the point
    // lifetimes of its spilled references.
    point::ensure_point_feasibility(&mut occ, f, &lt, spec, sink);
    timer.mark_traced(stats, Phase::Scan, sink);

    // Pass 2: rewrite. Spilled references go through scratch registers free
    // at the instruction's span.
    point::rewrite(&mut occ, f, &lt, spec, stats, &mut scratch.point, sink);
    occ.recycle(&mut scratch.point);
    lt.recycle(&mut scratch.analysis);
    timer.mark_traced(stats, Phase::Resolve, sink);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::AllocStats;
    use lsra_ir::{Cond, ExtFn, FunctionBuilder, MachineSpec, RegClass};

    #[test]
    fn whole_lifetimes_go_to_register_or_memory() {
        // Under pressure the two-pass allocator spills whole lifetimes:
        // every reference of a spilled temp pays a point load/store.
        let spec = MachineSpec::small(3, 2);
        let mut b = FunctionBuilder::new(&spec, "main", &[]);
        let ts: Vec<_> = (0..6).map(|i| b.int_temp(&format!("t{i}"))).collect();
        for (i, &t) in ts.iter().enumerate() {
            b.movi(t, i as i64);
        }
        let acc = b.int_temp("acc");
        b.movi(acc, 0);
        for &t in &ts {
            b.add(acc, acc, t);
        }
        b.ret(Some(acc.into()));
        let mut f = b.finish();
        let mut stats = AllocStats::default();
        allocate(
            &mut f,
            &spec,
            BinpackConfig::two_pass(),
            &mut stats,
            &mut AllocScratch::default(),
            &mut lsra_trace::NoopSink,
        );
        f.allocated = true;
        assert!(f.validate().is_ok(), "no virtual operand is left");
        assert!(stats.spilled_temps > 0);
        // A spilled temp with one def and one use costs exactly one store
        // and one load: loads == uses of spilled temps.
        assert!(stats.inserted_count(lsra_ir::SpillTag::EvictLoad) >= stats.spilled_temps as u64);
        assert!(stats.inserted_count(lsra_ir::SpillTag::EvictStore) >= stats.spilled_temps as u64);
    }

    #[test]
    fn call_crossers_cannot_use_caller_saved() {
        let spec = MachineSpec::small(4, 2); // caller r0-r2, callee r3
        let mut b = FunctionBuilder::new(&spec, "main", &[]);
        let keep = b.int_temp("keep");
        b.movi(keep, 5);
        b.call_ext(ExtFn::GetChar, &[], Some(RegClass::Int));
        let out = b.int_temp("out");
        b.add(out, keep, keep);
        b.ret(Some(out.into()));
        let mut mb = lsra_ir::ModuleBuilder::new("m", 0);
        let id = mb.add(b.finish());
        mb.entry(id);
        let original = mb.finish();
        let mut m = original.clone();
        let mut stats = AllocStats::default();
        allocate(
            m.func_mut(id),
            &spec,
            BinpackConfig::two_pass(),
            &mut stats,
            &mut AllocScratch::default(),
            &mut lsra_trace::NoopSink,
        );
        m.func_mut(id).allocated = true;
        // keep either got the lone callee-saved register or was spilled;
        // it must never sit in a caller-saved register across the call,
        // which the VM poisons there.
        lsra_vm::verify_allocation(&original, &m, &spec, &[], lsra_vm::VmOptions::default())
            .expect("keep survives the call");
    }

    #[test]
    fn loop_spills_repeat_every_iteration() {
        // The defining property vs. second chance: a spilled temp's loop
        // references pay memory traffic on every iteration.
        let spec = MachineSpec::small(3, 2);
        let mut b = FunctionBuilder::new(&spec, "main", &[]);
        let ts: Vec<_> = (0..4).map(|i| b.int_temp(&format!("t{i}"))).collect();
        for &t in &ts {
            b.movi(t, 1);
        }
        let n = b.int_temp("n");
        b.movi(n, 10);
        let head = b.block();
        let body = b.block();
        let exit = b.block();
        b.jump(head);
        b.switch_to(head);
        b.branch(Cond::Le, n, exit, body);
        b.switch_to(body);
        for &t in &ts {
            b.add(t, t, n);
        }
        b.addi(n, n, -1);
        b.jump(head);
        b.switch_to(exit);
        let out = b.int_temp("out");
        b.movi(out, 0);
        for &t in &ts {
            b.add(out, out, t);
        }
        b.ret(Some(out.into()));
        let module = {
            let mut mb = lsra_ir::ModuleBuilder::new("t", 0);
            let id = mb.add(b.finish());
            mb.entry(id);
            mb.finish()
        };
        let mut m = module.clone();
        let mut stats = AllocStats::default();
        let mut scratch = AllocScratch::default();
        for id in m.func_ids().collect::<Vec<_>>() {
            allocate(
                m.func_mut(id),
                &spec,
                BinpackConfig::two_pass(),
                &mut stats,
                &mut scratch,
                &mut lsra_trace::NoopSink,
            );
            m.func_mut(id).allocated = true;
        }
        let r = lsra_vm::verify_allocation(&module, &m, &spec, &[], lsra_vm::VmOptions::default())
            .expect("verified");
        // Dynamic spill count scales with iterations (10 iterations, at
        // least one spilled temp referenced each time).
        assert!(r.counts.spill_total() >= 10, "got {}", r.counts.spill_total());
    }
}
