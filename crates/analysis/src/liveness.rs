//! Iterative bit-vector liveness over temporaries.
//!
//! Following the paper (§3), temporaries that are live only within a single
//! basic block are excluded from the dataflow bit vectors, "which greatly
//! reduces bit vector sizes". Only *global* temporaries — those referenced
//! in more than one block, or upward-exposed in their only block — occupy
//! bit positions.

use lsra_ir::{BlockId, Function, Temp};

use crate::bitset::BitSet;
use crate::cfg::Cfg;

/// Per-block live-in/live-out sets over global temporaries.
///
/// # Examples
///
/// ```
/// use lsra_analysis::Liveness;
/// use lsra_ir::{FunctionBuilder, MachineSpec, RegClass};
///
/// let spec = MachineSpec::alpha_like();
/// let mut b = FunctionBuilder::new(&spec, "f", &[RegClass::Int]);
/// let x = b.param(0);
/// let blk = b.block();
/// b.jump(blk);
/// b.switch_to(blk);
/// b.ret(Some(x.into()));
/// let f = b.finish();
///
/// let live = Liveness::compute(&f);
/// assert!(live.is_live_in(blk, x), "x flows into the second block");
/// ```
#[derive(Clone, Debug)]
pub struct Liveness {
    global_index: Vec<Option<u32>>,
    globals: Vec<Temp>,
    live_in: Vec<BitSet>,
    live_out: Vec<BitSet>,
    /// Number of iterations the solver took to reach the fixed point
    /// (exposed because the paper's complexity discussion, §2.6, leans on
    /// this being 2–3 in practice).
    pub iterations: u32,
}

/// Per-chunk classification state for pass 1.
struct ChunkClass {
    seen: Vec<bool>,
    multi_block: Vec<bool>,
    upward_exposed: Vec<bool>,
}

/// Pass 1 over a contiguous run of blocks: classifies each temporary as
/// seen / multi-block / upward-exposed *within these blocks*. The
/// "defined in this block before this use" test uses an epoch stamp (one
/// u32 per temp, allocated once) instead of a per-block boolean buffer,
/// making the pass O(blocks + insts) instead of O(blocks × temps).
fn classify_blocks(f: &Function, blocks: &[BlockId], nt: usize) -> ChunkClass {
    let mut seen_in: Vec<Option<BlockId>> = vec![None; nt];
    let mut multi_block = vec![false; nt];
    let mut upward_exposed = vec![false; nt];
    let mut defined_epoch = vec![0u32; nt];
    for &b in blocks {
        let epoch = b.index() as u32 + 1; // 0 means "never defined"
        for ins in &f.block(b).insts {
            ins.inst.for_each_use(|r| {
                if let Some(t) = r.as_temp() {
                    match seen_in[t.index()] {
                        None => seen_in[t.index()] = Some(b),
                        Some(prev) if prev != b => multi_block[t.index()] = true,
                        _ => {}
                    }
                    if defined_epoch[t.index()] != epoch {
                        upward_exposed[t.index()] = true;
                    }
                }
            });
            ins.inst.for_each_def(|r| {
                if let Some(t) = r.as_temp() {
                    match seen_in[t.index()] {
                        None => seen_in[t.index()] = Some(b),
                        Some(prev) if prev != b => multi_block[t.index()] = true,
                        _ => {}
                    }
                    defined_epoch[t.index()] = epoch;
                }
            });
        }
    }
    ChunkClass { seen: seen_in.iter().map(Option::is_some).collect(), multi_block, upward_exposed }
}

/// Pass 2 over a contiguous run of blocks: per-block gen (upward-exposed
/// uses) and kill (defs). `gen`/`kill` are the slices for exactly `blocks`.
fn gen_kill_blocks(
    f: &Function,
    blocks: &[BlockId],
    global_index: &[Option<u32>],
    gen: &mut [BitSet],
    kill: &mut [BitSet],
) {
    for (i, &b) in blocks.iter().enumerate() {
        for ins in &f.block(b).insts {
            ins.inst.for_each_use(|r| {
                if let Some(g) = r.as_temp().and_then(|t| global_index[t.index()]) {
                    if !kill[i].contains(g as usize) {
                        gen[i].insert(g as usize);
                    }
                }
            });
            ins.inst.for_each_def(|r| {
                if let Some(g) = r.as_temp().and_then(|t| global_index[t.index()]) {
                    kill[i].insert(g as usize);
                }
            });
        }
    }
}

impl Liveness {
    /// Computes liveness for `f`, building its [`Cfg`] first.
    pub fn compute(f: &Function) -> Self {
        Liveness::compute_on(f, &Cfg::compute(f), 1)
    }

    /// Computes liveness for `f` over its `cfg`, splitting the per-block
    /// passes (classification and gen/kill construction) across up to
    /// `workers` threads over contiguous block ranges. The result is
    /// identical to the serial computation: classification merges are
    /// order-independent (a temp referenced in two disjoint chunks is
    /// multi-block by definition), global bit positions are assigned by
    /// temp index, and the fixed-point solve stays serial.
    pub fn compute_on(f: &Function, cfg: &Cfg, workers: usize) -> Self {
        debug_assert_eq!(cfg.num_blocks(), f.num_blocks());
        let nt = f.num_temps();
        let nb = f.num_blocks();
        let workers = workers.clamp(1, nb.max(1));
        let block_ids: Vec<BlockId> = f.block_ids().collect();
        let chunk = nb.div_ceil(workers);

        // Pass 1: classify temporaries as global or block-local.
        let (mut multi_block, upward_exposed) = if workers == 1 {
            let c = classify_blocks(f, &block_ids, nt);
            (c.multi_block, c.upward_exposed)
        } else {
            let results: Vec<ChunkClass> = std::thread::scope(|s| {
                let handles: Vec<_> = block_ids
                    .chunks(chunk)
                    .map(|blocks| s.spawn(move || classify_blocks(f, blocks, nt)))
                    .collect();
                handles.into_iter().map(|h| h.join().expect("liveness worker panicked")).collect()
            });
            let mut multi_block = vec![false; nt];
            let mut upward_exposed = vec![false; nt];
            let mut chunks_seen = vec![0u8; nt];
            for c in &results {
                for t in 0..nt {
                    if c.seen[t] {
                        chunks_seen[t] = chunks_seen[t].saturating_add(1);
                    }
                    multi_block[t] |= c.multi_block[t];
                    upward_exposed[t] |= c.upward_exposed[t];
                }
            }
            // Chunks are disjoint block ranges: a temp seen in two chunks is
            // necessarily referenced in two different blocks.
            for t in 0..nt {
                multi_block[t] |= chunks_seen[t] > 1;
            }
            (multi_block, upward_exposed)
        };
        for t in 0..nt {
            multi_block[t] |= upward_exposed[t];
        }
        let mut global_index = vec![None; nt];
        let mut globals = Vec::new();
        for (t, &is_global) in multi_block.iter().enumerate() {
            if is_global {
                global_index[t] = Some(globals.len() as u32);
                globals.push(Temp(t as u32));
            }
        }
        let ng = globals.len();

        // Pass 2: per-block gen (upward-exposed uses) and kill (defs).
        let mut gen = vec![BitSet::new(ng); nb];
        let mut kill = vec![BitSet::new(ng); nb];
        if workers == 1 {
            gen_kill_blocks(f, &block_ids, &global_index, &mut gen, &mut kill);
        } else {
            let global_index = &global_index;
            std::thread::scope(|s| {
                let mut gen_rest: &mut [BitSet] = &mut gen;
                let mut kill_rest: &mut [BitSet] = &mut kill;
                for blocks in block_ids.chunks(chunk) {
                    let (g, gr) = gen_rest.split_at_mut(blocks.len());
                    let (k, kr) = kill_rest.split_at_mut(blocks.len());
                    gen_rest = gr;
                    kill_rest = kr;
                    s.spawn(move || gen_kill_blocks(f, blocks, global_index, g, k));
                }
            });
        }

        // Pass 3: solve to the fixed point, visiting blocks in reverse
        // reverse-postorder (a good order for backward problems). Serial:
        // the propagation order is the algorithm.
        let rev = cfg.rpo.iter().rev().copied();
        let sol = crate::dataflow::solve_backward(cfg, ng, &gen, &kill, rev);

        Liveness {
            global_index,
            globals,
            live_in: sol.live_in,
            live_out: sol.live_out,
            iterations: sol.iterations,
        }
    }

    /// Number of global (cross-block) temporaries.
    pub fn num_globals(&self) -> usize {
        self.globals.len()
    }

    /// True if `t` participates in cross-block liveness.
    #[inline]
    pub fn is_global(&self, t: Temp) -> bool {
        self.global_of(t).is_some()
    }

    /// The dense bit position of a global temporary. Temporaries created
    /// *after* the analysis ran (e.g. by spill-code insertion, which only
    /// creates block-local temporaries) report `None`.
    #[inline]
    pub fn global_of(&self, t: Temp) -> Option<usize> {
        self.global_index.get(t.index()).copied().flatten().map(|g| g as usize)
    }

    /// The temporary at bit position `g`.
    #[inline]
    pub fn temp_of(&self, g: usize) -> Temp {
        self.globals[g]
    }

    /// Live-in set of `b` (bit positions; map through [`Liveness::temp_of`]).
    #[inline]
    pub fn live_in(&self, b: BlockId) -> &BitSet {
        &self.live_in[b.index()]
    }

    /// Live-out set of `b`.
    #[inline]
    pub fn live_out(&self, b: BlockId) -> &BitSet {
        &self.live_out[b.index()]
    }

    /// True if `t` is live into `b`.
    pub fn is_live_in(&self, b: BlockId, t: Temp) -> bool {
        self.global_of(t).is_some_and(|g| self.live_in[b.index()].contains(g))
    }

    /// True if `t` is live out of `b`.
    pub fn is_live_out(&self, b: BlockId, t: Temp) -> bool {
        self.global_of(t).is_some_and(|g| self.live_out[b.index()].contains(g))
    }

    /// Iterates over the temporaries live out of `b`.
    pub fn live_out_temps<'a>(&'a self, b: BlockId) -> impl Iterator<Item = Temp> + 'a {
        self.live_out[b.index()].iter().map(move |g| self.temp_of(g))
    }

    /// Iterates over the temporaries live into `b`.
    pub fn live_in_temps<'a>(&'a self, b: BlockId) -> impl Iterator<Item = Temp> + 'a {
        self.live_in[b.index()].iter().map(move |g| self.temp_of(g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsra_ir::{Cond, FunctionBuilder, MachineSpec, RegClass};

    /// A loop where `acc` is live around the back edge and `k` is local.
    fn loop_func() -> (Function, Temp, Temp) {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "l", &[RegClass::Int]);
        let n = b.param(0);
        let acc = b.int_temp("acc");
        let k = b.int_temp("k");
        b.movi(acc, 0);
        let head = b.block();
        let body = b.block();
        let exit = b.block();
        b.jump(head);
        b.switch_to(head);
        b.branch(Cond::Gt, n, body, exit);
        b.switch_to(body);
        b.movi(k, 3);
        b.add(acc, acc, k);
        b.addi(n, n, -1);
        b.jump(head);
        b.switch_to(exit);
        b.ret(Some(acc.into()));
        (b.finish(), acc, k)
    }

    #[test]
    fn loop_carried_values_are_live_around_back_edge() {
        let (f, acc, k) = loop_func();
        let l = Liveness::compute(&f);
        assert!(l.is_global(acc));
        assert!(!l.is_global(k), "k is defined before use within one block");
        let head = BlockId(1);
        let body = BlockId(2);
        assert!(l.is_live_in(head, acc));
        assert!(l.is_live_out(body, acc));
        assert!(l.is_live_in(BlockId(3), acc), "returned value is live into the exit block");
    }

    #[test]
    fn dead_temp_is_not_live() {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "d", &[]);
        let x = b.int_temp("x");
        b.movi(x, 1);
        let b1 = b.block();
        b.jump(b1);
        b.switch_to(b1);
        b.ret(None);
        let f = b.finish();
        let l = Liveness::compute(&f);
        assert!(!l.is_live_out(BlockId(0), x));
        assert_eq!(l.live_in(BlockId(1)).count(), 0);
    }

    #[test]
    fn upward_exposed_single_block_temp_is_global() {
        // Use-before-def in the only block referencing the temp: must stay in
        // the dataflow universe for safety.
        let spec = MachineSpec::alpha_like();
        let mut fb = FunctionBuilder::new(&spec, "u", &[]);
        let x = fb.int_temp("x");
        let y = fb.int_temp("y");
        fb.add(y, x, x); // x used before any def
        fb.ret(Some(y.into()));
        let f = fb.finish();
        let l = Liveness::compute(&f);
        assert!(l.is_global(x));
        assert!(l.is_live_in(BlockId(0), x));
    }

    #[test]
    fn solver_terminates_quickly() {
        let (f, _, _) = loop_func();
        let l = Liveness::compute(&f);
        assert!(l.iterations <= 4, "expected 2-3 iterations, got {}", l.iterations);
    }

    #[test]
    fn parallel_liveness_matches_serial() {
        let (f, _, _) = loop_func();
        let serial = Liveness::compute(&f);
        let cfg = Cfg::compute(&f);
        for workers in [2, 3, 7] {
            let par = Liveness::compute_on(&f, &cfg, workers);
            assert_eq!(par.num_globals(), serial.num_globals(), "workers={workers}");
            for g in 0..serial.num_globals() {
                assert_eq!(par.temp_of(g), serial.temp_of(g), "workers={workers}");
            }
            for b in f.block_ids() {
                assert_eq!(par.live_in(b), serial.live_in(b), "workers={workers} b={b:?}");
                assert_eq!(par.live_out(b), serial.live_out(b), "workers={workers} b={b:?}");
            }
        }
    }
}
