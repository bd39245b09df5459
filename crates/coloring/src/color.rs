//! Iterated register coalescing for one register class, after George &
//! Appel (TOPLAS 1996), as used for the paper's baseline allocator.
//!
//! The build–simplify–coalesce–freeze–spill worklist structure follows the
//! published algorithm. Per the paper's implementation notes (§3):
//! the adjacency relation lives in a lower-triangular bit matrix, liveness
//! is computed once (spill temporaries are block-local and stay out of the
//! bit vectors), and the two register files are colored separately.

use lsra_analysis::{BitSet, EpochSet, Liveness, LoopInfo};
use lsra_ir::{Function, Inst, Reg, RegClass, SpillTag, Temp};

use crate::matrix::TriangularBitMatrix;

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum NodeState {
    Precolored,
    Initial,
    SimplifyWl,
    FreezeWl,
    SpillWl,
    OnStack,
    Coalesced,
    Colored,
    Spilled,
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum MoveState {
    Worklist,
    Active,
    Coalesced,
    Constrained,
    Frozen,
}

/// Outcome of one build–color round.
pub(crate) struct RoundResult {
    /// Color per class temporary (node order).
    pub colors: Vec<Option<u8>>,
    /// Temporaries that must be spilled and rewritten.
    pub spilled: Vec<Temp>,
    /// Interference edges added this round.
    pub edges: u64,
}

pub(crate) struct Round<'a> {
    f: &'a Function,
    live: &'a Liveness,
    class: RegClass,
    k: usize,
    /// Node `k + i` is `temps[i]`.
    pub temps: Vec<Temp>,
    node_of: Vec<Option<u32>>,
    adj: TriangularBitMatrix,
    adj_list: Vec<Vec<u32>>,
    degree: Vec<u32>,
    move_list: Vec<Vec<u32>>,
    moves: Vec<(u32, u32)>,
    move_state: Vec<MoveState>,
    alias: Vec<u32>,
    state: Vec<NodeState>,
    cost: Vec<f64>,
    is_spill_temp: Vec<bool>,
    simplify_wl: Vec<u32>,
    freeze_wl: Vec<u32>,
    spill_wl: Vec<u32>,
    worklist_moves: Vec<u32>,
    select_stack: Vec<u32>,
    /// Briggs' distinct-neighbour set, emptied per move in O(1).
    seen: EpochSet,
    edges: u64,
}

impl<'a> Round<'a> {
    pub(crate) fn new(
        f: &'a Function,
        live: &'a Liveness,
        loops: &LoopInfo,
        class: RegClass,
        k: usize,
        excluded: &[bool],
        spill_temp_marker: &[bool],
    ) -> Self {
        // Class temporaries still in play get nodes after the k precolored
        // ones.
        let mut temps = Vec::new();
        let mut node_of = vec![None; f.num_temps()];
        for i in 0..f.num_temps() {
            let t = Temp(i as u32);
            if f.temp_class(t) == class && !excluded[i] {
                node_of[i] = Some((k + temps.len()) as u32);
                temps.push(t);
            }
        }
        let n = k + temps.len();
        let mut state = vec![NodeState::Initial; n];
        for s in state.iter_mut().take(k) {
            *s = NodeState::Precolored;
        }
        let mut degree = vec![0u32; n];
        for d in degree.iter_mut().take(k) {
            *d = u32::MAX / 2; // precolored nodes have infinite degree
        }
        // Weighted reference counts for the spill heuristic.
        let mut cost = vec![0.0f64; n];
        let mut is_spill_temp = vec![false; n];
        for b in f.block_ids() {
            let w = loops.weight(b);
            for ins in &f.block(b).insts {
                let mut bump = |r: Reg| {
                    if let Reg::Temp(t) = r {
                        if let Some(nd) = node_of[t.index()] {
                            cost[nd as usize] += w;
                        }
                    }
                };
                ins.inst.for_each_use(&mut bump);
                ins.inst.for_each_def(&mut bump);
            }
        }
        for (i, &t) in temps.iter().enumerate() {
            if spill_temp_marker[t.index()] {
                is_spill_temp[k + i] = true;
            }
        }
        Round {
            f,
            live,
            class,
            k,
            temps,
            node_of,
            adj: TriangularBitMatrix::new(n),
            adj_list: vec![Vec::new(); n],
            degree,
            move_list: vec![Vec::new(); n],
            moves: Vec::new(),
            move_state: Vec::new(),
            alias: (0..n as u32).collect(),
            state,
            cost,
            is_spill_temp,
            simplify_wl: Vec::new(),
            freeze_wl: Vec::new(),
            spill_wl: Vec::new(),
            worklist_moves: Vec::new(),
            select_stack: Vec::new(),
            seen: EpochSet::new(n),
            edges: 0,
        }
    }

    fn node(&self, r: Reg) -> Option<u32> {
        match r {
            Reg::Temp(t) => self.node_of[t.index()],
            Reg::Phys(p) if p.class == self.class => Some(p.index as u32),
            Reg::Phys(_) => None,
        }
    }

    fn add_edge(&mut self, u: u32, v: u32) {
        if u == v {
            return;
        }
        let (ui, vi) = (u as usize, v as usize);
        if self.state[ui] == NodeState::Precolored && self.state[vi] == NodeState::Precolored {
            return;
        }
        if self.adj.insert(ui, vi) {
            self.edges += 1;
            if self.state[ui] != NodeState::Precolored {
                self.adj_list[ui].push(v);
                self.degree[ui] += 1;
            }
            if self.state[vi] != NodeState::Precolored {
                self.adj_list[vi].push(u);
                self.degree[vi] += 1;
            }
        }
    }

    /// Builds the interference graph and move lists from the code.
    ///
    /// The live set is one bit set per round, walked in ascending node
    /// order at each definition, so the cost follows the live sets rather
    /// than instructions × nodes, and `add_edge` meets the pairs in node
    /// order (which fixes the order of every `adj_list`).
    pub(crate) fn build(&mut self, spec: &lsra_ir::MachineSpec) {
        let clobbers: Vec<u32> = spec.caller_saved(self.class).map(|p| p.index as u32).collect();
        let mut live = BitSet::new(self.adj.num_nodes());
        let mut uses: Vec<u32> = Vec::new();
        let mut defs: Vec<u32> = Vec::new();
        for b in self.f.block_ids() {
            // live = temps of this class live out of b, plus nothing
            // precolored (precolored values are block-local by IR
            // invariant).
            live.clear();
            for t in self.live.live_out_temps(b) {
                if let Some(nd) = self.node_of[t.index()] {
                    live.insert(nd as usize);
                }
            }
            for ins in self.f.block(b).insts.iter().rev() {
                uses.clear();
                defs.clear();
                ins.inst.for_each_use(|r| uses.extend(self.node(r)));
                ins.inst.for_each_def(|r| defs.extend(self.node(r)));
                if ins.inst.is_call() {
                    for &c in &clobbers {
                        if !defs.contains(&c) {
                            defs.push(c);
                        }
                    }
                }
                let move_nodes = match &ins.inst {
                    Inst::Mov { dst, src } => match (self.node(*dst), self.node(*src)) {
                        (Some(d), Some(s)) if d != s => Some((d, s)),
                        _ => None,
                    },
                    _ => None,
                };
                if let Some((d, s)) = move_nodes {
                    live.remove(s as usize);
                    let m = self.moves.len() as u32;
                    self.moves.push((d, s));
                    self.move_state.push(MoveState::Worklist);
                    self.worklist_moves.push(m);
                    self.move_list[d as usize].push(m);
                    self.move_list[s as usize].push(m);
                }
                for &d in &defs {
                    live.insert(d as usize);
                }
                for &d in &defs {
                    for l in &live {
                        self.add_edge(l as u32, d);
                    }
                }
                for &d in &defs {
                    live.remove(d as usize);
                }
                for &u in &uses {
                    live.insert(u as usize);
                }
            }
        }
    }

    fn node_moves(&self, n: u32) -> Vec<u32> {
        self.move_list[n as usize]
            .iter()
            .copied()
            .filter(|&m| {
                matches!(self.move_state[m as usize], MoveState::Worklist | MoveState::Active)
            })
            .collect()
    }

    fn move_related(&self, n: u32) -> bool {
        self.move_list[n as usize].iter().any(|&m| {
            matches!(self.move_state[m as usize], MoveState::Worklist | MoveState::Active)
        })
    }

    /// True if `w` has left the graph (George & Appel's `Adjacent` skips
    /// it). Walks of `adj_list` test this per neighbour instead of copying
    /// the filtered list: no caller moves a node into or out of these two
    /// states, or grows the list it walks, while the walk runs.
    fn removed(&self, w: u32) -> bool {
        matches!(self.state[w as usize], NodeState::OnStack | NodeState::Coalesced)
    }

    pub(crate) fn make_worklists(&mut self) {
        for n in (self.k as u32)..(self.adj.num_nodes() as u32) {
            if self.state[n as usize] != NodeState::Initial {
                continue;
            }
            if self.degree[n as usize] >= self.k as u32 {
                self.state[n as usize] = NodeState::SpillWl;
                self.spill_wl.push(n);
            } else if self.move_related(n) {
                self.state[n as usize] = NodeState::FreezeWl;
                self.freeze_wl.push(n);
            } else {
                self.state[n as usize] = NodeState::SimplifyWl;
                self.simplify_wl.push(n);
            }
        }
    }

    fn simplify(&mut self, n: u32) {
        self.state[n as usize] = NodeState::OnStack;
        self.select_stack.push(n);
        for i in 0..self.adj_list[n as usize].len() {
            let m = self.adj_list[n as usize][i];
            if !self.removed(m) {
                self.decrement_degree(m);
            }
        }
    }

    fn pop_state(&mut self, want: NodeState) -> Option<u32> {
        let wl = match want {
            NodeState::SimplifyWl => &mut self.simplify_wl,
            NodeState::FreezeWl => &mut self.freeze_wl,
            _ => unreachable!(),
        };
        while let Some(n) = wl.pop() {
            if self.state[n as usize] == want {
                return Some(n);
            }
        }
        None
    }

    fn decrement_degree(&mut self, m: u32) {
        if self.state[m as usize] == NodeState::Precolored {
            return;
        }
        let d = self.degree[m as usize];
        self.degree[m as usize] = d.saturating_sub(1);
        if d == self.k as u32 {
            for i in 0..self.adj_list[m as usize].len() {
                let w = self.adj_list[m as usize][i];
                if !self.removed(w) {
                    self.enable_moves(w);
                }
            }
            self.enable_moves(m);
            if self.state[m as usize] == NodeState::SpillWl {
                if self.move_related(m) {
                    self.state[m as usize] = NodeState::FreezeWl;
                    self.freeze_wl.push(m);
                } else {
                    self.state[m as usize] = NodeState::SimplifyWl;
                    self.simplify_wl.push(m);
                }
            }
        }
    }

    fn enable_moves(&mut self, n: u32) {
        for i in 0..self.move_list[n as usize].len() {
            let m = self.move_list[n as usize][i];
            if self.move_state[m as usize] == MoveState::Active {
                self.move_state[m as usize] = MoveState::Worklist;
                self.worklist_moves.push(m);
            }
        }
    }

    fn get_alias(&self, mut n: u32) -> u32 {
        while self.state[n as usize] == NodeState::Coalesced {
            n = self.alias[n as usize];
        }
        n
    }

    fn add_work_list(&mut self, u: u32) {
        if self.state[u as usize] != NodeState::Precolored
            && !self.move_related(u)
            && self.degree[u as usize] < self.k as u32
            && self.state[u as usize] == NodeState::FreezeWl
        {
            self.state[u as usize] = NodeState::SimplifyWl;
            self.simplify_wl.push(u);
        }
    }

    fn ok(&self, t: u32, r: u32) -> bool {
        self.degree[t as usize] < self.k as u32
            || self.state[t as usize] == NodeState::Precolored
            || self.adj.contains(t as usize, r as usize)
    }

    /// Briggs' test: fewer than `k` distinct neighbours of `u` and `v`
    /// have significant degree.
    fn conservative(&mut self, u: u32, v: u32) -> bool {
        self.seen.advance();
        let mut count = 0;
        for n in [u, v] {
            for &w in &self.adj_list[n as usize] {
                if !self.removed(w)
                    && self.seen.insert(w as usize)
                    && self.degree[w as usize] >= self.k as u32
                {
                    count += 1;
                }
            }
        }
        count < self.k
    }

    fn pop_move(&mut self) -> Option<u32> {
        while let Some(m) = self.worklist_moves.pop() {
            if self.move_state[m as usize] == MoveState::Worklist {
                return Some(m);
            }
        }
        None
    }

    fn coalesce(&mut self, m: u32, coalesced: &mut u64) {
        let (xd, xs) = self.moves[m as usize];
        let x = self.get_alias(xd);
        let y = self.get_alias(xs);
        let (u, v) = if self.state[y as usize] == NodeState::Precolored { (y, x) } else { (x, y) };
        if u == v {
            self.move_state[m as usize] = MoveState::Coalesced;
            *coalesced += 1;
            self.add_work_list(u);
        } else if self.state[v as usize] == NodeState::Precolored
            || self.adj.contains(u as usize, v as usize)
        {
            self.move_state[m as usize] = MoveState::Constrained;
            self.add_work_list(u);
            self.add_work_list(v);
        } else {
            let george = self.state[u as usize] == NodeState::Precolored
                && self.adj_list[v as usize].iter().all(|&t| self.removed(t) || self.ok(t, u));
            let briggs = self.state[u as usize] != NodeState::Precolored && self.conservative(u, v);
            if george || briggs {
                self.move_state[m as usize] = MoveState::Coalesced;
                *coalesced += 1;
                self.combine(u, v);
                self.add_work_list(u);
            } else {
                self.move_state[m as usize] = MoveState::Active;
            }
        }
    }

    fn combine(&mut self, u: u32, v: u32) {
        self.state[v as usize] = NodeState::Coalesced;
        self.alias[v as usize] = u;
        let mv = std::mem::take(&mut self.move_list[v as usize]);
        self.move_list[u as usize].extend(mv.iter().copied());
        self.move_list[v as usize] = mv;
        self.enable_moves(v);
        for i in 0..self.adj_list[v as usize].len() {
            let t = self.adj_list[v as usize][i];
            if !self.removed(t) {
                self.add_edge(t, u);
                self.decrement_degree(t);
            }
        }
        if self.degree[u as usize] >= self.k as u32 && self.state[u as usize] == NodeState::FreezeWl
        {
            self.state[u as usize] = NodeState::SpillWl;
            self.spill_wl.push(u);
        }
    }

    fn freeze(&mut self, u: u32) {
        self.state[u as usize] = NodeState::SimplifyWl;
        self.simplify_wl.push(u);
        self.freeze_moves(u);
    }

    fn freeze_moves(&mut self, u: u32) {
        for m in self.node_moves(u) {
            let (x, y) = self.moves[m as usize];
            let v = if self.get_alias(y) == self.get_alias(u) {
                self.get_alias(x)
            } else {
                self.get_alias(y)
            };
            self.move_state[m as usize] = MoveState::Frozen;
            if self.state[v as usize] != NodeState::Precolored
                && !self.move_related(v)
                && self.degree[v as usize] < self.k as u32
                && self.state[v as usize] == NodeState::FreezeWl
            {
                self.state[v as usize] = NodeState::SimplifyWl;
                self.simplify_wl.push(v);
            }
        }
    }

    /// Picks the spill candidate with the lowest cost/degree (avoiding
    /// temporaries created by earlier spill rewrites unless nothing else
    /// remains), moving it to the simplify worklist. Returns false if the
    /// spill worklist is empty.
    fn select_spill(&mut self) -> bool {
        let mut best: Option<(bool, f64, u32)> = None;
        self.spill_wl.retain(|&n| self.state[n as usize] == NodeState::SpillWl);
        for &n in &self.spill_wl {
            let metric = self.cost[n as usize] / (self.degree[n as usize].max(1) as f64);
            let better = match best {
                None => true,
                Some((bs, bm, _)) => (self.is_spill_temp[n as usize], metric) < (bs, bm),
            };
            if better {
                best = Some((self.is_spill_temp[n as usize], metric, n));
            }
        }
        match best {
            Some((_, _, n)) => {
                self.state[n as usize] = NodeState::SimplifyWl;
                self.simplify_wl.push(n);
                self.freeze_moves(n);
                true
            }
            None => false,
        }
    }

    /// Runs the worklist loop and color assignment; returns the outcome.
    pub(crate) fn run(mut self, spec: &lsra_ir::MachineSpec, coalesced: &mut u64) -> RoundResult {
        self.build(spec);
        self.make_worklists();
        loop {
            if let Some(n) = self.pop_state(NodeState::SimplifyWl) {
                self.simplify(n);
            } else if let Some(m) = self.pop_move() {
                self.coalesce(m, coalesced);
            } else if let Some(u) = self.pop_state(NodeState::FreezeWl) {
                self.freeze(u);
            } else if self.select_spill() {
                // continue
            } else {
                break;
            }
        }
        // Assign colors.
        let n_nodes = self.adj.num_nodes();
        let mut color: Vec<Option<u8>> = vec![None; n_nodes];
        for (c, col) in color.iter_mut().enumerate().take(self.k) {
            *col = Some(c as u8);
        }
        let mut spilled_nodes = Vec::new();
        let mut ok: Vec<bool> = vec![true; self.k];
        while let Some(n) = self.select_stack.pop() {
            ok.fill(true);
            for &w in &self.adj_list[n as usize] {
                let wa = self.get_alias(w);
                if let Some(c) = color[wa as usize] {
                    ok[c as usize] = false;
                }
            }
            match ok.iter().position(|&b| b) {
                Some(c) => {
                    self.state[n as usize] = NodeState::Colored;
                    color[n as usize] = Some(c as u8);
                }
                None => {
                    self.state[n as usize] = NodeState::Spilled;
                    spilled_nodes.push(n);
                }
            }
        }
        for n in 0..n_nodes as u32 {
            if self.state[n as usize] == NodeState::Coalesced {
                let a = self.get_alias(n);
                color[n as usize] = color[a as usize];
            }
        }
        let spilled: Vec<Temp> =
            spilled_nodes.iter().map(|&n| self.temps[n as usize - self.k]).collect();
        RoundResult {
            colors: (self.k..n_nodes).map(|i| color[i]).collect(),
            spilled,
            edges: self.edges,
        }
    }
}

/// Rewrites actual spills: each use of a spilled temporary loads into a
/// fresh (block-local) temporary, each definition stores from one.
pub(crate) fn rewrite_spills(
    f: &mut Function,
    spilled: &[Temp],
    stats_inserted: &mut Vec<(SpillTag, u64)>,
) -> Vec<Temp> {
    let mut created = Vec::new();
    let mut loads = 0u64;
    let mut stores = 0u64;
    let is_spilled: Vec<bool> = {
        let mut v = vec![false; f.num_temps()];
        for &t in spilled {
            v[t.index()] = true;
        }
        v
    };
    for &t in spilled {
        f.slot_for(t);
    }
    for b in f.block_ids().collect::<Vec<_>>() {
        let insts = std::mem::take(&mut f.block_mut(b).insts);
        let mut out = Vec::with_capacity(insts.len());
        for mut ins in insts {
            let mut pre = Vec::new();
            let mut post = Vec::new();
            // Uses.
            let mut use_map: Vec<(Temp, Temp)> = Vec::new();
            let mut use_temps = Vec::new();
            ins.inst.for_each_use(|r| {
                if let Reg::Temp(t) = r {
                    if is_spilled[t.index()] && !use_temps.contains(&t) {
                        use_temps.push(t);
                    }
                }
            });
            for t in use_temps {
                let nt = f.new_temp(f.temp_class(t), None);
                created.push(nt);
                pre.push(lsra_ir::Ins::tagged(
                    Inst::SpillLoad { dst: Reg::Temp(nt), temp: t },
                    SpillTag::EvictLoad,
                ));
                loads += 1;
                use_map.push((t, nt));
            }
            ins.inst.for_each_use_mut(|r| {
                if let Reg::Temp(t) = *r {
                    if let Some((_, nt)) = use_map.iter().find(|(u, _)| *u == t) {
                        *r = Reg::Temp(*nt);
                    }
                }
            });
            // Defs.
            let mut def_temp = None;
            ins.inst.for_each_def(|r| {
                if let Reg::Temp(t) = r {
                    if is_spilled[t.index()] {
                        def_temp = Some(t);
                    }
                }
            });
            if let Some(t) = def_temp {
                let nt = f.new_temp(f.temp_class(t), None);
                created.push(nt);
                ins.inst.for_each_def_mut(|r| {
                    if matches!(*r, Reg::Temp(u) if u == t) {
                        *r = Reg::Temp(nt);
                    }
                });
                post.push(lsra_ir::Ins::tagged(
                    Inst::SpillStore { src: Reg::Temp(nt), temp: t },
                    SpillTag::EvictStore,
                ));
                stores += 1;
            }
            out.append(&mut pre);
            out.push(ins);
            out.append(&mut post);
        }
        f.block_mut(b).insts = out;
    }
    stats_inserted.push((SpillTag::EvictLoad, loads));
    stats_inserted.push((SpillTag::EvictStore, stores));
    created
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsra_analysis::{Cfg, Dominators};
    use lsra_ir::{BlockId, Cond, ExtFn, FunctionBuilder, MachineSpec, OpCode, PhysReg};

    fn round_for<'a>(f: &'a Function, spec: &lsra_ir::MachineSpec, class: RegClass) -> Round<'a> {
        // Leak the liveness/loops to satisfy the borrow (test-only).
        let cfg = lsra_analysis::Cfg::compute(f);
        let live = Box::leak(Box::new(Liveness::compute_on(f, &cfg, 1)));
        let loops = LoopInfo::compute(f, &cfg, &lsra_analysis::Dominators::compute(f, &cfg));
        let k = spec.num_regs(class) as usize;
        let excluded = vec![false; f.num_temps()];
        let marker = vec![false; f.num_temps()];
        let mut r = Round::new(f, live, &loops, class, k, &excluded, &marker);
        r.build(spec);
        r
    }

    #[test]
    fn build_adds_edges_between_simultaneously_live_temps() {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "t", &[]);
        let x = b.int_temp("x");
        let y = b.int_temp("y");
        let z = b.int_temp("z");
        b.movi(x, 1);
        b.movi(y, 2); // x live here -> edge x-y
        b.add(z, x, y);
        b.ret(Some(z.into()));
        let f = b.finish();
        let r = round_for(&f, &spec, RegClass::Int);
        let k = spec.num_regs(RegClass::Int) as usize;
        let nx = k as u32;
        let ny = k as u32 + 1;
        let nz = k as u32 + 2;
        assert!(r.adj.contains(nx as usize, ny as usize), "x and y interfere");
        assert!(
            !r.adj.contains(nz as usize, nx as usize),
            "z is defined as x dies: no interference"
        );
    }

    #[test]
    fn build_adds_call_clobber_edges() {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "t", &[]);
        let keep = b.int_temp("keep");
        b.movi(keep, 5);
        b.call_ext(ExtFn::GetChar, &[], Some(RegClass::Int));
        let out = b.int_temp("out");
        b.add(out, keep, keep);
        b.ret(Some(out.into()));
        let f = b.finish();
        let r = round_for(&f, &spec, RegClass::Int);
        let k = spec.num_regs(RegClass::Int) as usize;
        let nkeep = k; // first int temp node
        for p in spec.caller_saved(RegClass::Int) {
            assert!(
                r.adj.contains(nkeep, p.index as usize),
                "keep must interfere with caller-saved {p}"
            );
        }
        // And not (necessarily) with callee-saved ones.
        let callee = spec.callee_saved(RegClass::Int).next().unwrap();
        assert!(!r.adj.contains(nkeep, callee.index as usize));
    }

    #[test]
    fn move_sources_do_not_interfere_with_destinations() {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "t", &[]);
        let x = b.int_temp("x");
        let y = b.int_temp("y");
        b.movi(x, 1);
        b.mov(y, x); // x dies into y: coalescable, no edge
        b.ret(Some(y.into()));
        let f = b.finish();
        let r = round_for(&f, &spec, RegClass::Int);
        let k = spec.num_regs(RegClass::Int) as usize;
        assert!(!r.adj.contains(k, k + 1), "move pairs must not interfere");
        assert_eq!(r.moves.len(), 2, "the param-ret and x->y moves are candidates");
        let _ = PhysReg::int(0);
    }

    /// The build before the live-set walk: a fresh `Vec<bool>` per block
    /// and a scan of every node at every definition. Kept as the reference
    /// that `Round::build` must match edge for edge and in `adj_list` order.
    fn build_reference(r: &mut Round<'_>, spec: &MachineSpec) {
        let f = r.f;
        let clobbers: Vec<u32> = spec.caller_saved(r.class).map(|p| p.index as u32).collect();
        for b in f.block_ids() {
            let mut live: Vec<bool> = vec![false; r.adj.num_nodes()];
            for t in r.live.live_out_temps(b) {
                if let Some(nd) = r.node_of[t.index()] {
                    live[nd as usize] = true;
                }
            }
            for ins in f.block(b).insts.iter().rev() {
                let mut uses: Vec<u32> = Vec::new();
                ins.inst.for_each_use(|x| uses.extend(r.node(x)));
                let mut defs: Vec<u32> = Vec::new();
                ins.inst.for_each_def(|x| defs.extend(r.node(x)));
                if ins.inst.is_call() {
                    for &c in &clobbers {
                        if !defs.contains(&c) {
                            defs.push(c);
                        }
                    }
                }
                if let Inst::Mov { dst, src } = &ins.inst {
                    if let (Some(d), Some(s)) = (r.node(*dst), r.node(*src)) {
                        if d != s {
                            live[s as usize] = false;
                            let m = r.moves.len() as u32;
                            r.moves.push((d, s));
                            r.move_state.push(MoveState::Worklist);
                            r.worklist_moves.push(m);
                            r.move_list[d as usize].push(m);
                            r.move_list[s as usize].push(m);
                        }
                    }
                }
                for &d in &defs {
                    live[d as usize] = true;
                }
                for &d in &defs {
                    for (l, &is_live) in live.iter().enumerate() {
                        if is_live {
                            r.add_edge(l as u32, d);
                        }
                    }
                }
                for &d in &defs {
                    live[d as usize] = false;
                }
                for &u in &uses {
                    live[u as usize] = true;
                }
            }
        }
    }

    /// A seeded generator of multi-block functions over both classes, with
    /// loops, moves between temporaries, and calls (clobber edges).
    fn random_function(spec: &MachineSpec, seed: u64) -> Function {
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        let mut below = move |n: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        };
        let mut b = FunctionBuilder::new(spec, "g", &[RegClass::Int, RegClass::Float]);
        let mut ints: Vec<Temp> = vec![b.param(0)];
        let mut floats: Vec<Temp> = vec![b.param(1)];
        for i in 0..4 + below(10) {
            let t = b.int_temp(&format!("i{i}"));
            b.movi(t, i as i64);
            ints.push(t);
        }
        for i in 0..2 + below(6) {
            let t = b.float_temp(&format!("f{i}"));
            b.movf(t, i as f64);
            floats.push(t);
        }
        let blocks: Vec<BlockId> = (0..2 + below(5)).map(|_| b.block()).collect();
        b.jump(blocks[0]);
        for (i, &blk) in blocks.iter().enumerate() {
            b.switch_to(blk);
            for _ in 0..3 + below(12) {
                let (x, y, z) =
                    (ints[below(ints.len())], ints[below(ints.len())], ints[below(ints.len())]);
                let (p, q, r) = (
                    floats[below(floats.len())],
                    floats[below(floats.len())],
                    floats[below(floats.len())],
                );
                match below(8) {
                    0 => b.add(x, y, z),
                    1 => b.op2(OpCode::FAdd, p, q, r),
                    2 => b.mov(x, y),
                    3 => b.mov(p, q),
                    4 => {
                        let got = b.call_ext(ExtFn::GetChar, &[], Some(RegClass::Int)).unwrap();
                        b.mov(x, got);
                    }
                    5 => {
                        b.call_ext(ExtFn::PutFloat, &[p.into()], None);
                    }
                    6 => b.op1(OpCode::IntToFloat, p, x),
                    _ => {
                        b.call_ext(ExtFn::PutInt, &[x.into()], None);
                    }
                }
            }
            match blocks.get(i + 1) {
                Some(&next) => {
                    let back = blocks[below(i + 1)];
                    b.branch(Cond::Gt, ints[below(ints.len())], back, next);
                }
                None => b.ret(Some(ints[below(ints.len())].into())),
            }
        }
        b.finish()
    }

    fn assert_same_graph(want: &Round<'_>, got: &Round<'_>, what: &str) {
        assert!(want.adj == got.adj, "{what}: adjacency matrices differ");
        assert_eq!(want.adj_list, got.adj_list, "{what}: adj_list");
        assert_eq!(want.degree, got.degree, "{what}: degree");
        assert_eq!(want.moves, got.moves, "{what}: moves");
        assert_eq!(want.move_list, got.move_list, "{what}: move_list");
        assert_eq!(want.worklist_moves, got.worklist_moves, "{what}: worklist_moves");
        assert_eq!(want.edges, got.edges, "{what}: edge count");
    }

    /// Builds every round of both classes twice, by the reference scan and
    /// by `Round::build`, spilling between rounds as the allocator does.
    /// Returns the number of spill rewrites, the edges and the moves seen.
    fn compare_builds(mut f: Function, spec: &MachineSpec, seed: u64) -> (usize, u64, usize) {
        let cfg = Cfg::compute(&f);
        let loops = LoopInfo::compute(&f, &cfg, &Dominators::compute(&f, &cfg));
        let live = Liveness::compute_on(&f, &cfg, 1);
        let (mut spills, mut edges, mut moves) = (0, 0, 0);
        for class in RegClass::ALL {
            let k = spec.num_regs(class) as usize;
            let mut excluded = vec![false; f.num_temps()];
            let mut marker = vec![false; f.num_temps()];
            for round in 0.. {
                let what = format!("seed {seed}, {class}, round {round}");
                let mut want = Round::new(&f, &live, &loops, class, k, &excluded, &marker);
                build_reference(&mut want, spec);
                let mut got = Round::new(&f, &live, &loops, class, k, &excluded, &marker);
                got.build(spec);
                assert_same_graph(&want, &got, &what);
                edges += got.edges;
                moves += got.moves.len();
                let result =
                    Round::new(&f, &live, &loops, class, k, &excluded, &marker).run(spec, &mut 0);
                if result.spilled.is_empty() {
                    break;
                }
                spills += 1;
                for &t in &result.spilled {
                    excluded[t.index()] = true;
                }
                let created = rewrite_spills(&mut f, &result.spilled, &mut Vec::new());
                excluded.resize(f.num_temps(), false);
                marker.resize(f.num_temps(), false);
                for t in created {
                    marker[t.index()] = true;
                }
            }
        }
        (spills, edges, moves)
    }

    #[test]
    fn live_set_walk_builds_the_reference_graph() {
        let (mut spills, mut edges, mut moves) = (0, 0, 0);
        for seed in 0..40 {
            for spec in [MachineSpec::alpha_like(), MachineSpec::small(3, 2)] {
                let (s, e, m) = compare_builds(random_function(&spec, seed), &spec, seed);
                spills += s;
                edges += e;
                moves += m;
            }
        }
        assert!(spills > 0, "no seed reached a spill round");
        assert!(edges > 0 && moves > 0, "the generator built no edges or no moves");
    }

    /// Distinct significant-degree neighbours of `u` and `v`, counted by
    /// sorting: the definition Briggs' test must agree with.
    fn conservative_brute(r: &Round<'_>, u: u32, v: u32) -> bool {
        let mut nodes: Vec<u32> = r.adj_list[u as usize]
            .iter()
            .chain(&r.adj_list[v as usize])
            .copied()
            .filter(|&w| !r.removed(w))
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes.iter().filter(|&&w| r.degree[w as usize] >= r.k as u32).count() < r.k
    }

    #[test]
    fn conservative_counts_distinct_significant_neighbours() {
        let (mut checks, mut refused) = (0, 0);
        let specs = [MachineSpec::alpha_like(), MachineSpec::small(3, 2)];
        for (seed, spec) in (0..40).flat_map(|seed| specs.iter().map(move |spec| (seed, spec))) {
            let f = random_function(spec, seed);
            let cfg = Cfg::compute(&f);
            let loops = LoopInfo::compute(&f, &cfg, &Dominators::compute(&f, &cfg));
            let live = Liveness::compute_on(&f, &cfg, 1);
            for class in RegClass::ALL {
                let k = spec.num_regs(class) as usize;
                let none = vec![false; f.num_temps()];
                let mut r = Round::new(&f, &live, &loops, class, k, &none, &none);
                r.build(spec);
                r.make_worklists();
                let n = r.adj.num_nodes() as u32;
                for x in k as u32..n {
                    for y in x + 1..n {
                        let want = conservative_brute(&r, x, y);
                        assert_eq!(r.conservative(x, y), want, "seed {seed}, {class}");
                        checks += 1;
                        refused += usize::from(!want);
                    }
                }
                let mut coalesced = 0;
                // The worklist loop of `Round::run`, checking every move's
                // Briggs test against the brute-force count first.
                loop {
                    if let Some(n) = r.pop_state(NodeState::SimplifyWl) {
                        r.simplify(n);
                    } else if let Some(m) = r.pop_move() {
                        let (x, y) = r.moves[m as usize];
                        let (x, y) = (r.get_alias(x), r.get_alias(y));
                        if x != y {
                            let want = conservative_brute(&r, x, y);
                            assert_eq!(r.conservative(x, y), want, "seed {seed}, {class}");
                            checks += 1;
                            refused += usize::from(!want);
                        }
                        r.coalesce(m, &mut coalesced);
                    } else if let Some(u) = r.pop_state(NodeState::FreezeWl) {
                        r.freeze(u);
                    } else if !r.select_spill() {
                        break;
                    }
                }
            }
        }
        assert!(checks > refused && refused > 0, "{checks} checks, {refused} refused");
    }
}
