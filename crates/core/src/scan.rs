//! The single-pass allocate-and-rewrite linear scan (§2.2, §2.3, §2.5).
//!
//! Unlike earlier linear-scan allocators, which decide allocations in one
//! pass over sorted lifetimes and rewrite operands in a second, this scan
//! interleaves the two: each instruction's operands are allocated (evicting
//! or reloading as needed) and immediately rewritten to physical registers.
//! A spill therefore *splits* the victim's lifetime — earlier references
//! keep their register; only future references are affected — and a spilled
//! temporary gets a *second chance* at a register at its next reference.
//!
//! The scan also records, per basic block, the location maps and consistency
//! bit vectors that the resolution phase (§2.4) consumes.

use lsra_analysis::{BitSet, Cfg, Csr, EpochSet, Lifetimes, Liveness, Point};
use lsra_ir::{Function, Ins, Inst, MachineSpec, PhysReg, Reg, RegClass, SpillTag, Temp};
use lsra_trace::{CoalesceOutcome, EvictAction, FitTier, SpillCandidate, TraceEvent, TraceSink};

use crate::config::{BinpackConfig, ConsistencyMode};
use crate::scratch::{reset, take_bitsets, AllocScratch};
use crate::stats::AllocStats;

/// Where a temporary's current value lives during the scan.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Loc {
    /// Not yet materialised anywhere (before its first reference, or while
    /// holding no value inside a lifetime hole after losing its register).
    None,
    /// In a physical register.
    Reg(PhysReg),
    /// In its memory home (spill slot).
    Mem,
}

/// Per-block facts handed from the scan to the resolution phase.
///
/// The location maps are compressed-sparse-row containers (one row per
/// block, rows finished in block order as the scan advances); their backing
/// arrays come from — and return to — the [`AllocScratch`] arena.
#[derive(Debug)]
pub(crate) struct ScanOutput {
    /// Register-resident live-in temporaries at the top of each block;
    /// live-in temporaries absent from the list are in memory. Rows sorted
    /// by temporary.
    pub top_map: Csr<(Temp, PhysReg)>,
    /// Same at the bottom of each block (live-out temporaries).
    pub bottom_map: Csr<(Temp, PhysReg)>,
    /// Saved `ARE_CONSISTENT` at the bottom of each block (over the
    /// liveness global-temp universe; a set bit means the temporary is in a
    /// register whose contents match its memory home).
    pub consistent_bottom: Vec<BitSet>,
    /// `USED_CONSISTENCY(b)` — the GEN set of the `USED_C` dataflow.
    pub used_consistency: Vec<BitSet>,
    /// `WROTE_TR(b)` — the KILL set.
    pub wrote_tr: Vec<BitSet>,
}

pub(crate) struct Scanner<'a> {
    f: &'a mut Function,
    live: &'a Liveness,
    lt: &'a Lifetimes,
    cfg: BinpackConfig,
    stats: &'a mut AllocStats,
    spec: &'a MachineSpec,
    occupant: Vec<Option<Temp>>,
    loc: Vec<Loc>,
    consistent: Vec<bool>,
    /// Temporaries written in the current block; epoch-stamped so the
    /// per-block reset is O(1) instead of O(temps).
    wrote_local: EpochSet,
    /// Temporaries whose store suppression relied on consistency facts not
    /// established in the current block (`Ut`, §2.4); epoch-stamped too.
    used_local: EpochSet,
    seg_cur: Vec<usize>,
    ref_cur: Vec<usize>,
    blk_cur: Vec<usize>,
    /// The function's CFG; the conservative consistency mode meets over
    /// its predecessor rows.
    graph: &'a Cfg,
    /// The register a temporary last occupied before being displaced while
    /// inside one of its lifetime holes (the binpacking model's "another
    /// temporary fits inside the hole", §2.1-§2.2). Used to restore the
    /// original occupant when the hole ends at a block boundary.
    last_reg: Vec<Option<usize>>,
    /// Top boundary point of the block currently being scanned.
    cur_top: Point,
    /// Per register: the displaced hole owner expected to reclaim it when
    /// its hole ends. Successive fillers must fit before the owner's
    /// return, even after earlier fillers die (the container keeps its
    /// register around every filler, §2.1).
    pending_owner: Vec<Option<Temp>>,
    /// Per-block live-in staging buffer (reused across blocks).
    live_in: Vec<Temp>,
    /// Precolored-blocked segment starts over all registers, sorted by
    /// `(start, register)`; `sweep` consumes them through `event_cur` so the
    /// per-instruction cost is one bounds-checked compare instead of a walk
    /// over the register file.
    blocked_events: Vec<(Point, u32)>,
    event_cur: usize,
    /// Memo for [`Scanner::reg_unblocked_until`]: `(lo, hi, answer)` — the
    /// answer holds for every query point in `[lo, hi]`. Scan points are
    /// monotonic per register and the blocked segments immutable, so the
    /// cache is exact; it spares the CSR row fetch and cursor walk that
    /// `try_alloc` otherwise repeats for all registers of a class on every
    /// fresh definition.
    unblocked_cache: Vec<(Point, Point, Option<Point>)>,
    /// Same shape of memo for [`Scanner::temp_live_at`], per temporary.
    live_cache: Vec<(Point, Point, bool)>,
    /// Candidate bitmask for [`Scanner::try_alloc`]'s hole sweep, one bit
    /// per dense register index. A cleared bit is a *busy proof*: until the
    /// matching [`Scanner::hole_expiry`] entry fires, the register's
    /// occupant stays live, so [`Scanner::reg_hole`] returns `None`, and
    /// skipping the probe skips no side effect. The proof stands beside a
    /// valid pending owner too, because its expiry is also bounded by the
    /// point just before the owner can next be live. Only there can a probe
    /// lapse the owner's claim, so the lapse lands in the same call as
    /// without the proof. (A stale owner needs no bound: every reader
    /// re-checks validity.) A set bit promises nothing; the sweep still
    /// probes it. The sweep clears bits when it finds the proof. `bind` /
    /// `evict` (the only occupancy writers) and expiry set them again, so a
    /// fully packed register file costs one word read per definition
    /// instead of a hole query per register.
    free_candidates: Vec<u64>,
    /// "Has history" bitmask, one bit per dense register index. A clear bit
    /// is a *proof* that [`Scanner::reg_hole`] returns the trivial hole
    /// `(INF, INF)` for every requester. At setup the bit is clear for a
    /// register with no precolored blocked segment, which has never been
    /// bound. The sweep clears it again for a *dead* register: one whose
    /// probe returned `(INF, INF)` to a requester that is not its pending
    /// owner. No blocked segment lies ahead of it, and its occupant and
    /// any valid pending owner are never live again, so the hole stays
    /// trivial until the next `bind`, which sets the bit. Such registers
    /// are all equivalent to the sweep: under the smallest-sufficient-hole
    /// rule only the lowest-indexed one can ever win. So `try_alloc` probes
    /// only `free_candidates & interesting` individually and folds the
    /// whole trivial remainder in as one constant-time candidate. An
    /// evicted register keeps its bit; the over-approximation only costs a
    /// probe.
    interesting: Vec<u64>,
    /// Min-heap of `(expiry, register)` re-admission events for the cleared
    /// bits of `free_candidates`: `expiry` is the last point the busy proof
    /// covers. Stale entries (the register was re-admitted early by
    /// `bind`/`evict`) only cost a redundant re-set.
    hole_expiry: std::collections::BinaryHeap<std::cmp::Reverse<(Point, u32)>>,
    /// Arena the working vectors were taken from; `run` hands them back so
    /// the next function reuses their capacity.
    scratch: &'a mut AllocScratch,
    /// Decision-event consumer; every emission is gated on
    /// [`TraceSink::enabled`], so the default disabled sink costs one
    /// branch per potential event and builds no payloads.
    sink: &'a mut dyn TraceSink,
    out: ScanOutput,
}

const INF: Point = Point(u32::MAX);

impl<'a> Scanner<'a> {
    // The scan borrows its whole context individually on purpose: bundling
    // these into a struct would only move the argument list one level up.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        f: &'a mut Function,
        spec: &'a MachineSpec,
        graph: &'a Cfg,
        live: &'a Liveness,
        lt: &'a Lifetimes,
        cfg: BinpackConfig,
        stats: &'a mut AllocStats,
        scratch: &'a mut AllocScratch,
        sink: &'a mut dyn TraceSink,
    ) -> Self {
        let nregs = spec.total_regs();
        let nt = f.num_temps();
        let nb = f.num_blocks();
        let ng = live.num_globals();
        debug_assert_eq!(graph.num_blocks(), nb);
        // Take the working vectors out of the scratch arena, sized for this
        // function (`reset` keeps capacity); `run` hands them back.
        let mut occupant = std::mem::take(&mut scratch.occupant);
        let mut loc = std::mem::take(&mut scratch.loc);
        let mut consistent = std::mem::take(&mut scratch.consistent);
        let mut wrote_local = std::mem::take(&mut scratch.wrote_local);
        let mut used_local = std::mem::take(&mut scratch.used_local);
        let mut seg_cur = std::mem::take(&mut scratch.seg_cur);
        let mut ref_cur = std::mem::take(&mut scratch.ref_cur);
        let mut blk_cur = std::mem::take(&mut scratch.blk_cur);
        let mut last_reg = std::mem::take(&mut scratch.last_reg);
        let mut pending_owner = std::mem::take(&mut scratch.pending_owner);
        let mut unblocked_cache = std::mem::take(&mut scratch.unblocked_cache);
        let mut live_cache = std::mem::take(&mut scratch.live_cache);
        let mut free_candidates = std::mem::take(&mut scratch.free_candidates);
        let mut interesting = std::mem::take(&mut scratch.interesting);
        let mut hole_expiry = std::mem::take(&mut scratch.hole_expiry);
        reset(&mut free_candidates, nregs.div_ceil(64), u64::MAX);
        reset(&mut interesting, nregs.div_ceil(64), 0);
        hole_expiry.clear();
        reset(&mut occupant, nregs, None);
        reset(&mut loc, nt, Loc::None);
        reset(&mut consistent, nt, false);
        wrote_local.reset(nt);
        used_local.reset(nt);
        reset(&mut seg_cur, nt, 0);
        reset(&mut ref_cur, nt, 0);
        reset(&mut blk_cur, nregs, 0);
        reset(&mut last_reg, nt, None);
        reset(&mut pending_owner, nregs, None);
        // `lo > hi` is the always-miss sentinel.
        reset(&mut unblocked_cache, nregs, (Point(1), Point(0), None));
        reset(&mut live_cache, nt, (Point(1), Point(0), false));
        let live_in = std::mem::take(&mut scratch.live_in);
        let mut blocked_events = std::mem::take(&mut scratch.blocked_events);
        blocked_events.clear();
        for d in 0..nregs {
            if !lt.blocked(d).is_empty() {
                // A precolored block means the register's hole is never the
                // trivial (INF, INF): it must always be probed.
                interesting[d / 64] |= 1u64 << (d % 64);
            }
            for s in lt.blocked(d) {
                blocked_events.push((s.start, d as u32));
            }
        }
        blocked_events.sort_unstable();
        let mut top_map = std::mem::take(&mut scratch.top_map);
        let mut bottom_map = std::mem::take(&mut scratch.bottom_map);
        top_map.clear();
        bottom_map.clear();
        let consistent_bottom = take_bitsets(&mut scratch.consistent_bottom, nb, ng);
        let used_consistency = take_bitsets(&mut scratch.used_consistency, nb, ng);
        let wrote_tr = take_bitsets(&mut scratch.wrote_tr, nb, ng);
        Scanner {
            f,
            live,
            lt,
            cfg,
            stats,
            spec,
            occupant,
            loc,
            consistent,
            wrote_local,
            used_local,
            seg_cur,
            ref_cur,
            blk_cur,
            graph,
            last_reg,
            cur_top: Point(0),
            pending_owner,
            live_in,
            blocked_events,
            event_cur: 0,
            unblocked_cache,
            live_cache,
            free_candidates,
            interesting,
            hole_expiry,
            scratch,
            sink,
            out: ScanOutput { top_map, bottom_map, consistent_bottom, used_consistency, wrote_tr },
        }
    }

    /// Advances the segment cursor of `t` to the first segment ending at or
    /// after `p`.
    fn advance_segs(&mut self, t: Temp, p: Point) {
        let segs = self.lt.segments(t);
        let c = &mut self.seg_cur[t.index()];
        while *c < segs.len() && segs[*c].end < p {
            *c += 1;
        }
    }

    /// True if `t` carries a live value at `p`.
    fn temp_live_at(&mut self, t: Temp, p: Point) -> bool {
        let (lo, hi, ans) = self.live_cache[t.index()];
        if lo <= p && p <= hi {
            return ans;
        }
        self.advance_segs(t, p);
        let segs = self.lt.segments(t);
        // The answer is constant until `p` crosses the covering segment's
        // end (live) or the next segment's start (in a hole); queries per
        // temporary are monotonic, so the interval can be cached.
        let (ans, hi) = match segs.get(self.seg_cur[t.index()]) {
            Some(s) if s.start <= p => (true, s.end),
            Some(s) => (false, Point(s.start.0 - 1)),
            None => (false, INF),
        };
        self.live_cache[t.index()] = (p, hi, ans);
        ans
    }

    /// The first point at or after `p` where `t` is live (`INF` if never).
    fn next_live_start(&mut self, t: Temp, p: Point) -> Point {
        self.advance_segs(t, p);
        let segs = self.lt.segments(t);
        match segs.get(self.seg_cur[t.index()]) {
            Some(s) => s.start.max(p),
            None => INF,
        }
    }

    /// The end of `t`'s whole lifetime (`INF` if `t` has no references —
    /// which cannot happen for a temp the scan is asked about).
    fn lifetime_end(&self, t: Temp) -> Point {
        self.lt.lifetime(t).map_or(INF, |s| s.end)
    }

    /// The next reference of `t` at or after `p`.
    fn next_ref(&mut self, t: Temp, p: Point) -> Option<lsra_analysis::RefPoint> {
        let refs = self.lt.refs(t);
        let c = &mut self.ref_cur[t.index()];
        while *c < refs.len() && refs[*c].point < p {
            *c += 1;
        }
        refs.get(*c).copied()
    }

    /// The start of the next precolored-blocked segment of register `d` at
    /// or after `p`, or `None` if `d` is blocked *at* `p`.
    fn reg_unblocked_until(&mut self, d: usize, p: Point) -> Option<Point> {
        let (lo, hi, ans) = self.unblocked_cache[d];
        if lo <= p && p <= hi {
            return ans;
        }
        let blocked = self.lt.blocked(d);
        let c = &mut self.blk_cur[d];
        while *c < blocked.len() && blocked[*c].end < p {
            *c += 1;
        }
        let (ans, hi) = match blocked.get(*c) {
            Some(s) if s.start <= p => (None, s.end),
            Some(s) => (Some(s.start), Point(s.start.0 - 1)),
            None => (Some(INF), INF),
        };
        self.unblocked_cache[d] = (p, hi, ans);
        ans
    }

    /// How long register `d` is free starting at `p` (`None` if not free at
    /// `p`: blocked by a precolored value or occupied by a live temporary).
    fn reg_free_until(&mut self, d: usize, p: Point, for_temp: Temp) -> Option<Point> {
        self.reg_hole(d, p, for_temp).map(|(free_until, _)| free_until)
    }

    /// The hole of register `d` at `p`: `(free_until, occupant_return)`.
    /// `free_until` is bounded by both the next precolored block and the
    /// current occupant's next live segment; `occupant_return` is the
    /// occupant bound alone (`INF` when the register is empty). `None` if
    /// the register is not free at `p`.
    ///
    /// The distinction matters for the §2.5 insufficiently-large-hole rule:
    /// a temporary may be packed into a *register* hole that is too small
    /// (it is evicted when the convention reclaims the register), but a
    /// *lifetime* hole of another temporary only admits values that fit
    /// entirely inside it (§2.1) — otherwise the filler would steal the
    /// container's register.
    fn reg_hole(&mut self, d: usize, p: Point, for_temp: Temp) -> Option<(Point, Point)> {
        // Fast path for the common case under pressure: no displaced owner
        // waiting and a live occupant — the register is simply taken,
        // whatever the blocked segments say. (With no pending owner there
        // is no lapse bookkeeping to perform, so skipping the full walk
        // has no observable effect.)
        if self.pending_owner[d].is_none() {
            if let Some(u) = self.occupant[d] {
                if self.temp_live_at(u, p) {
                    return None;
                }
            }
        }
        let limit = self.reg_unblocked_until(d, p)?;
        let mut reclaim = INF;
        // A displaced hole owner still waiting for this register bounds the
        // hole by its return point (unless the requester is that owner).
        if let Some(w) = self.pending_owner[d] {
            if w != for_temp
                && self.loc[w.index()] == Loc::None
                && self.last_reg[w.index()] == Some(d)
            {
                let ret = self.next_live_start(w, p);
                if ret > p {
                    reclaim = ret;
                } else {
                    // The owner's segment already began without a reclaim
                    // (it was live out of a block on another path); its
                    // claim lapses — pessimization or a second-chance
                    // reload will rehome it.
                    self.pending_owner[d] = None;
                }
            } else if w != for_temp {
                self.pending_owner[d] = None;
            }
        }
        match self.occupant[d] {
            Some(u) => {
                if self.temp_live_at(u, p) {
                    None
                } else {
                    let ret = reclaim.min(self.next_live_start(u, p));
                    Some((limit.min(ret), ret))
                }
            }
            None => Some((limit.min(reclaim), reclaim)),
        }
    }

    /// Binds `t` to register `d`, displacing any holed-out previous
    /// occupant (which remembers the register so it can be restored when
    /// its hole ends, §2.1-§2.2).
    fn bind(&mut self, t: Temp, d: usize) {
        // Occupancy (and possibly the pending owner) changes: any standing
        // not-free proof for this register is void, and the register now
        // has history — it must be probed individually from here on.
        self.free_candidates[d / 64] |= 1u64 << (d % 64);
        self.interesting[d / 64] |= 1u64 << (d % 64);
        if let Some(o) = self.occupant[d] {
            if o != t && self.loc[o.index()] == Loc::Reg(self.spec.reg_at(d)) {
                self.loc[o.index()] = Loc::None;
                self.last_reg[o.index()] = Some(d);
                // The displaced owner becomes (or stays) the register's
                // pending reclaimer; keep the earlier-returning owner if
                // one is already waiting.
                let keep_existing = match self.pending_owner[d] {
                    Some(w)
                        if w != o
                            && self.loc[w.index()] == Loc::None
                            && self.last_reg[w.index()] == Some(d) =>
                    {
                        let wr = self.next_live_start(w, Point(0));
                        let or = self.next_live_start(o, Point(0));
                        wr <= or
                    }
                    _ => false,
                };
                if !keep_existing {
                    self.pending_owner[d] = Some(o);
                }
            }
        }
        self.occupant[d] = Some(t);
        self.loc[t.index()] = Loc::Reg(self.spec.reg_at(d));
        self.last_reg[t.index()] = None;
        if self.pending_owner[d] == Some(t) {
            self.pending_owner[d] = None;
        }
    }

    /// After [`Scanner::reg_hole`] found register `d` not free at `at` for
    /// `t`, drops it from `free_candidates` when the reason is a live
    /// occupant, until the occupant's covering segment ends. A valid pending
    /// owner `w` (not `t`) also bounds the proof: it expires just before `w`
    /// can next be live, the first point where a probe could lapse `w`'s
    /// claim. `bind`/`evict` re-admit the register early if the occupancy
    /// changes first.
    fn prove_busy(&mut self, d: usize, at: Point, t: Temp) {
        let Some(u) = self.occupant[d] else { return };
        self.advance_segs(u, at);
        let Some(s) = self.lt.segments(u).get(self.seg_cur[u.index()]).copied() else { return };
        if !(s.start <= at && at <= s.end) {
            return; // not free because of a blocked segment
        }
        let pending = self.pending_owner[d];
        let until = match pending {
            None => s.end,
            // Only when the probe got past the blocked check: then it has
            // already asked for `w`'s next live point, so asking again moves
            // no cursor, and the answer lies after `at` (else the probe
            // would have lapsed the claim).
            Some(w)
                if w != t
                    && self.loc[w.index()] == Loc::None
                    && self.last_reg[w.index()] == Some(d)
                    && self.reg_unblocked_until(d, at).is_some() =>
            {
                s.end.min(Point(self.next_live_start(w, at).0 - 1))
            }
            Some(_) => return,
        };
        self.free_candidates[d / 64] &= !(1u64 << (d % 64));
        self.hole_expiry.push(std::cmp::Reverse((until, d as u32)));
    }

    /// [`Scanner::reg_hole`] without its side effects: no claim lapses, no
    /// cursor moves (segments are found by binary search), so debug checks
    /// can ask it anything without changing what the scan does next.
    #[cfg(debug_assertions)]
    fn peek_hole(&self, d: usize, p: Point, for_temp: Temp) -> Option<(Point, Point)> {
        // The first point at or after `p` where `t` is live (`p` itself
        // exactly when `t` is live at `p`).
        let next_live = |t: Temp| {
            let segs = self.lt.segments(t);
            segs.get(segs.partition_point(|s| s.end < p)).map_or(INF, |s| s.start.max(p))
        };
        let blocked = self.lt.blocked(d);
        let limit = match blocked.get(blocked.partition_point(|s| s.end < p)) {
            Some(s) if s.start <= p => return None,
            Some(s) => s.start,
            None => INF,
        };
        let mut reclaim = INF;
        if let Some(w) = self.pending_owner[d] {
            if w != for_temp
                && self.loc[w.index()] == Loc::None
                && self.last_reg[w.index()] == Some(d)
                && next_live(w) > p
            {
                reclaim = next_live(w);
            }
        }
        match self.occupant[d] {
            Some(u) if next_live(u) == p => None,
            Some(u) => {
                let ret = reclaim.min(next_live(u));
                Some((limit.min(ret), ret))
            }
            None => Some((limit.min(reclaim), reclaim)),
        }
    }

    /// Verifies every register of `range` that `try_alloc`'s masks let it
    /// skip: a busy proof must mean "not free", and a clear `interesting`
    /// bit must mean the trivial hole.
    #[cfg(debug_assertions)]
    fn check_skipped(&self, range: std::ops::Range<usize>, at: Point, t: Temp) {
        for d in range {
            let bit = 1u64 << (d % 64);
            if self.interesting[d / 64] & bit == 0 {
                assert_eq!(
                    self.peek_hole(d, at, t),
                    Some((INF, INF)),
                    "{} folded as trivial at {at} in {}",
                    self.spec.reg_at(d),
                    self.f.name
                );
            } else if self.free_candidates[d / 64] & bit == 0 {
                assert_eq!(
                    self.peek_hole(d, at, t),
                    None,
                    "{} skipped as busy at {at} in {}",
                    self.spec.reg_at(d),
                    self.f.name
                );
            }
        }
    }

    /// The paper's allocation heuristic: among registers free at `at` whose
    /// hole lasts at least until `need_end`, prefer the *smallest hole* that
    /// covers `t`'s remaining lifetime; failing that (and if configured) the
    /// *largest insufficient* hole (§2.5). Within the winning tier, the
    /// register `t` previously occupied is preferred — the affinity that
    /// GEM's "history preferencing" provides (§4) and that keeps the
    /// per-path register choices of the linear scan aligned at CFG joins.
    fn try_alloc(
        &mut self,
        t: Temp,
        at: Point,
        need_end: Point,
        exclude: &[usize],
        force_insufficient: bool,
    ) -> Option<usize> {
        let class = self.f.temp_class(t);
        let want_end = self.lifetime_end(t);
        // Three preference tiers:
        //   1. sufficient holes (smallest first, §2.2);
        //   2. insufficiently large *register* holes (largest first, §2.5)
        //      — the occupant bound still covers the whole lifetime, only a
        //      convention cuts the hole short;
        //   3. insufficiently large *temporary* holes — allowed as a last
        //      resort (the displaced owner pays resolution traffic), since
        //      refusing them can make high pressure unsatisfiable.
        // Within the winning tier, the previously occupied register wins.
        let mut best: [Option<(Point, usize)>; 3] = [None; 3];
        let mut prev_tier: Option<(usize, Point)> = None;
        let prev = self.last_reg[t.index()].filter(|d| !exclude.contains(d));
        // Re-admit registers whose occupancy proof expired: the occupant's
        // covering segment ended before `at`, so the register may be free.
        while let Some(&std::cmp::Reverse((e, d))) = self.hole_expiry.peek() {
            if e >= at {
                break;
            }
            self.hole_expiry.pop();
            self.free_candidates[d as usize / 64] |= 1u64 << (d % 64);
        }
        let range = self.spec.reg_indices(class);
        #[cfg(debug_assertions)]
        self.check_skipped(range.clone(), at, t);
        // Only registers *with history* (see `interesting`) are probed
        // individually: a clear bit proves the trivial hole (INF, INF), and
        // under the tier rules every such register lands in tier 0 with the
        // largest possible hole — so the whole trivial remainder of the
        // class collapses into one candidate, folded in after the loop. The
        // sweep is thereby O(registers with a live or pending value), not
        // O(registers): a wide machine running a narrow function never
        // scans its idle or dead tail.
        let mut d = range.start;
        while d < range.end {
            let word = (self.free_candidates[d / 64] & self.interesting[d / 64]) >> (d % 64);
            if word == 0 {
                d = (d / 64 + 1) * 64;
                continue;
            }
            d += word.trailing_zeros() as usize;
            if d >= range.end {
                break;
            }
            let probe = d;
            d += 1;
            let d = probe;
            if exclude.contains(&d) {
                continue;
            }
            self.stats.hole_probes += 1;
            let Some((free_until, occupant_return)) = self.reg_hole(d, at, t) else {
                self.prove_busy(d, at, t);
                continue;
            };
            if (free_until, occupant_return) == (INF, INF) && self.pending_owner[d] != Some(t) {
                // Dead: nothing blocks the register from here on, and its
                // occupant and any valid pending owner are never live
                // again. It joins the trivial remainder until the next
                // `bind` (see `interesting`).
                self.interesting[d / 64] &= !(1u64 << (d % 64));
            }
            if free_until < need_end {
                continue;
            }
            let tier = if free_until >= want_end {
                0
            } else if occupant_return >= want_end {
                1
            } else {
                2
            };
            let better = match best[tier] {
                None => true,
                // Tier 0: smallest hole; tiers 1-2: largest hole.
                Some((e, _)) => {
                    if tier == 0 {
                        free_until < e
                    } else {
                        free_until > e
                    }
                }
            };
            if better {
                best[tier] = Some((free_until, d));
            }
            if prev == Some(d) {
                prev_tier = Some((tier, free_until));
            }
        }
        // Fold the trivial remainder in as one candidate: the lowest-indexed
        // non-excluded register with a clear `interesting` bit. Its hole is
        // (INF, INF) — always sufficient, so tier 0 — and the full sweep
        // resolves tier-0 ties (equal free_until) to the lowest index, which
        // is exactly the lexicographic comparison below.
        let mut v = range.start;
        while v < range.end {
            let word = !self.interesting[v / 64] >> (v % 64);
            if word == 0 {
                v = (v / 64 + 1) * 64;
                continue;
            }
            v += word.trailing_zeros() as usize;
            if v >= range.end || !exclude.contains(&v) {
                break;
            }
            v += 1;
        }
        if v < range.end {
            let better = match best[0] {
                None => true,
                Some((e, b)) => e == INF && v < b,
            };
            if better {
                best[0] = Some((INF, v));
            }
            if let Some(p) = prev {
                if self.interesting[p / 64] & (1u64 << (p % 64)) == 0 {
                    prev_tier = Some((0, INF));
                }
            }
        }
        let tiers: &[usize] =
            if self.cfg.allow_insufficient_holes || force_insufficient { &[0, 1, 2] } else { &[0] };
        // (register, tier, free_until) of the winner.
        let mut choice: Option<(usize, usize, Point)> = None;
        for &tier in tiers {
            if let Some((e, d)) = best[tier] {
                choice = match (prev, prev_tier) {
                    (Some(p), Some((pt, pf))) if pt == tier => Some((p, tier, pf)),
                    _ => Some((d, tier, e)),
                };
                break;
            }
        }
        choice.map(|(d, tier, free_until)| {
            if self.sink.enabled() {
                const TIERS: [FitTier; 3] = [
                    FitTier::Sufficient,
                    FitTier::InsufficientRegHole,
                    FitTier::InsufficientTempHole,
                ];
                let ev = TraceEvent::Assign {
                    temp: t,
                    reg: self.spec.reg_at(d),
                    at,
                    tier: TIERS[tier],
                    free_until,
                    lifetime_end: want_end,
                };
                self.sink.event(&ev);
            }
            self.bind(t, d);
            d
        })
    }

    /// Ensures `t` has a spill slot.
    fn ensure_slot(&mut self, t: Temp) {
        if self.f.spill_slots[t.index()].is_none() {
            self.stats.spilled_temps += 1;
        }
        self.f.slot_for(t);
    }

    /// Evicts the occupant of `d`, inserting a spill store (or an early-
    /// second-chance move) into `pre` when the value would otherwise be
    /// lost. `convention` marks evictions forced by a register hole expiry
    /// (call sites and other precolored uses, §2.5).
    fn evict(
        &mut self,
        d: usize,
        at: Point,
        pre: &mut Vec<Ins>,
        convention: bool,
        pinned: &[usize],
    ) {
        let Some(u) = self.occupant[d] else { return };
        self.occupant[d] = None;
        // The register is vacated: void any standing not-free proof.
        self.free_candidates[d / 64] |= 1u64 << (d % 64);
        if self.loc[u.index()] != Loc::Reg(self.spec.reg_at(d)) {
            return; // stale occupancy of a dead or displaced temp
        }
        self.stats.evictions += 1;
        self.last_reg[u.index()] = Some(d);
        let live = self.temp_live_at(u, at) && !self.segment_ends_at_block_top(u, at);
        if !live {
            // Evicted during one of u's lifetime holes (or at a boundary
            // where its linear segment stems purely from another edge of
            // the linear predecessor): the next reference overwrites the
            // value — or the true predecessors' bottom maps carry it — so
            // no store is needed (§2.3).
            self.loc[u.index()] = Loc::None;
            if self.sink.enabled() {
                let ev = TraceEvent::Evict {
                    reg: self.spec.reg_at(d),
                    temp: u,
                    at,
                    convention,
                    action: EvictAction::HoleNoStore,
                };
                self.sink.event(&ev);
            }
            return;
        }
        let needs_store = if self.cfg.store_suppression && self.consistent[u.index()] {
            // Register and memory home agree; suppress the store. If that
            // knowledge was not established in this block, record the
            // reliance for the USED_C dataflow (§2.4).
            if !self.wrote_local.contains(u.index()) {
                self.used_local.insert(u.index());
            }
            self.stats.stores_suppressed += 1;
            false
        } else {
            true
        };
        if needs_store && convention && self.cfg.early_second_chance {
            // Early second chance: prefer a move to an empty register whose
            // hole covers u's remaining lifetime over a store now plus a
            // load later (§2.5).
            let want_end = self.lifetime_end(u);
            let class = self.f.temp_class(u);
            let mut found: Option<(Point, usize)> = None;
            for d2 in self.spec.reg_indices(class) {
                if d2 == d || pinned.contains(&d2) {
                    // `pinned` holds the registers feeding the current
                    // instruction: a move emitted before it must not
                    // overwrite them, even when their values die here.
                    continue;
                }
                // "Only if we can find an empty register rs": empty means
                // holding no live value — the hole query returns None for a
                // live occupant and bounds the hole by a returning one.
                let Some(free_until) = self.reg_free_until(d2, at, u) else { continue };
                if free_until >= want_end && found.is_none_or(|(e, _)| free_until < e) {
                    found = Some((free_until, d2));
                }
            }
            if let Some((_, d2)) = found {
                pre.push(Ins::tagged(
                    Inst::Mov {
                        dst: Reg::Phys(self.spec.reg_at(d2)),
                        src: Reg::Phys(self.spec.reg_at(d)),
                    },
                    SpillTag::EvictMove,
                ));
                self.stats.record_insert(SpillTag::EvictMove);
                if self.sink.enabled() {
                    let ev = TraceEvent::Evict {
                        reg: self.spec.reg_at(d),
                        temp: u,
                        at,
                        convention,
                        action: EvictAction::EarlyMove(self.spec.reg_at(d2)),
                    };
                    self.sink.event(&ev);
                }
                self.bind(u, d2);
                return;
            }
        }
        if needs_store {
            self.ensure_slot(u);
            pre.push(Ins::tagged(
                Inst::SpillStore { src: Reg::Phys(self.spec.reg_at(d)), temp: u },
                SpillTag::EvictStore,
            ));
            self.stats.record_insert(SpillTag::EvictStore);
        }
        if self.sink.enabled() {
            let action =
                if needs_store { EvictAction::Stored } else { EvictAction::StoreSuppressed };
            let ev =
                TraceEvent::Evict { reg: self.spec.reg_at(d), temp: u, at, convention, action };
            self.sink.event(&ev);
        }
        self.loc[u.index()] = Loc::Mem;
    }

    /// True when `u`'s covering segment ends exactly at the current block's
    /// top boundary: the liveness behind it belongs to the linear
    /// predecessor's *other* successors, so within this block `u` carries
    /// no value (it is not live-in here — a live-in temp's segment extends
    /// past the boundary). Storing its register here would overwrite its
    /// memory home with whatever the real incoming edge left in the
    /// register.
    fn segment_ends_at_block_top(&mut self, u: Temp, at: Point) -> bool {
        if at != self.cur_top {
            return false;
        }
        self.advance_segs(u, at);
        matches!(self.lt.segments(u).get(self.seg_cur[u.index()]), Some(s) if s.end == self.cur_top)
    }

    /// Picks an eviction victim for `t`'s class: the occupant with the
    /// lowest priority, where priority is the loop-depth weight of the next
    /// reference divided by its distance (§2.3). Occupants referenced at
    /// the current instruction (`guard`) and registers blocked before
    /// `need_end` are exempt.
    fn evict_for(
        &mut self,
        t: Temp,
        at: Point,
        need_end: Point,
        guard: Point,
        exclude: &[usize],
        pre: &mut Vec<Ins>,
    ) -> Option<usize> {
        let class = self.f.temp_class(t);
        let mut best: Option<(f64, usize)> = None;
        // Candidate set for the spill-choice trace (losing heuristic
        // distances included); only built when a sink is listening.
        let mut candidates: Vec<SpillCandidate> = Vec::new();
        let tracing = self.sink.enabled();
        for d in self.spec.reg_indices(class) {
            if exclude.contains(&d) {
                continue;
            }
            let Some(u) = self.occupant[d] else { continue };
            if u == t || !self.temp_live_at(u, at) {
                continue; // free or holed registers are handled by try_alloc
            }
            // The register must be usable through the requested interval.
            match self.reg_unblocked_until(d, at) {
                Some(limit) if limit >= need_end => {}
                _ => continue,
            }
            let (priority, next_ref, weight) = match self.next_ref(u, at) {
                Some(r) => {
                    if r.point <= guard {
                        continue; // operand of the current instruction
                    }
                    (r.weight / ((r.point.0 - at.0) as f64 + 1.0), Some(r.point), r.weight)
                }
                // Live with no later linear reference (value flows around a
                // back edge): weight 1 at lifetime-end distance.
                None => {
                    (1.0 / ((self.lifetime_end(u).0.saturating_sub(at.0)) as f64 + 1.0), None, 1.0)
                }
            };
            if tracing {
                candidates.push(SpillCandidate {
                    reg: self.spec.reg_at(d),
                    occupant: u,
                    next_ref,
                    weight,
                    priority,
                });
            }
            if best.is_none_or(|(p, _)| priority < p) {
                best = Some((priority, d));
            }
        }
        if tracing {
            let ev = TraceEvent::SpillChoice {
                for_temp: t,
                at,
                candidates,
                chosen: best.map(|(_, d)| self.spec.reg_at(d)),
            };
            self.sink.event(&ev);
        }
        let (_, d) = best?;
        self.evict(d, at, pre, false, exclude);
        self.bind(t, d);
        Some(d)
    }

    /// Allocates a register for `t`, evicting if necessary.
    fn alloc(
        &mut self,
        t: Temp,
        at: Point,
        need_end: Point,
        guard: Point,
        exclude: &[usize],
        pre: &mut Vec<Ins>,
    ) -> PhysReg {
        let d = self
            .try_alloc(t, at, need_end, exclude, false)
            .or_else(|| self.evict_for(t, at, need_end, guard, exclude, pre))
            // Even with insufficiently-large holes disabled by policy, a
            // reference must get *some* register: fall back to them rather
            // than fail (the temporary is simply evicted again at the hole's
            // end).
            .or_else(|| self.try_alloc(t, at, need_end, exclude, true))
            .unwrap_or_else(|| {
                let class = self.f.temp_class(t);
                let mut detail = String::new();
                for d in self.spec.reg_indices(class) {
                    let occ = self.occupant[d];
                    let occ_live = occ.map(|u| self.temp_live_at(u, at));
                    let occ_next_ref = occ.and_then(|u| self.next_ref(u, at)).map(|r| r.point);
                    let occ_loc = occ.map(|u| self.loc[u.index()]);
                    let hole = self.reg_hole(d, at, t);
                    detail.push_str(&format!(
                        "\n  {}: occupant={:?} (live={:?} next_ref={:?} loc={:?}) pending={:?} blocked@cursor={:?} hole={:?}",
                        self.spec.reg_at(d),
                        occ,
                        occ_live,
                        occ_next_ref,
                        occ_loc,
                        self.pending_owner[d],
                        self.lt.blocked(d).get(self.blk_cur[d]),
                        hole,
                    ));
                }
                panic!(
                    "register pressure unsatisfiable for {t} at {at} (need_end {need_end}, \
                     guard {guard}, exclude {exclude:?}): every {class} register is pinned by \
                     the current instruction{detail}"
                )
            });
        self.spec.reg_at(d)
    }

    /// Convention sweep: before each instruction, evict temporaries from
    /// registers whose precolored-blocked segment begins by `threshold`
    /// ("when a register's lifetime hole expires, ... evict the temporary",
    /// §2.5).
    fn sweep(&mut self, threshold: Point, pre: &mut Vec<Ins>, pinned: &[usize]) {
        // The common instruction has no expiring register hole: one compare
        // against the next blocked-segment start and the sweep is done,
        // instead of a walk over the whole register file.
        if self.event_cur >= self.blocked_events.len()
            || self.blocked_events[self.event_cur].0 > threshold
        {
            return;
        }
        let mut crossing = std::mem::take(&mut self.scratch.sweep_buf);
        crossing.clear();
        while self.event_cur < self.blocked_events.len()
            && self.blocked_events[self.event_cur].0 <= threshold
        {
            crossing.push(self.blocked_events[self.event_cur].1);
            self.event_cur += 1;
        }
        // Evictions must land in register order — the order the old
        // register-file walk emitted them in. Events are sorted by (start,
        // register), so a multi-start crossing can arrive out of register
        // order.
        crossing.sort_unstable();
        for &d in &crossing {
            let d = d as usize;
            if self.occupant[d].is_none() {
                continue;
            }
            let blocked = self.lt.blocked(d);
            let mut c = self.blk_cur[d];
            // Peek without disturbing the cursor past live segments.
            while c < blocked.len() && blocked[c].end < threshold {
                c += 1;
            }
            self.blk_cur[d] = c;
            if let Some(s) = blocked.get(c) {
                if s.start <= threshold {
                    self.evict(d, threshold, pre, true, pinned);
                }
            }
        }
        self.scratch.sweep_buf = crossing;
    }

    /// Processes a use of temporary `t` at instruction `gi`: returns the
    /// register to rewrite the operand to, inserting a second-chance reload
    /// if the value is in memory (§2.3).
    fn process_use(
        &mut self,
        t: Temp,
        gi: u32,
        exclude: &mut Vec<usize>,
        pre: &mut Vec<Ins>,
    ) -> PhysReg {
        let rp = Point::read(gi);
        match self.loc[t.index()] {
            Loc::Reg(r) => {
                debug_assert_eq!(self.occupant[self.spec.reg_index(r)], Some(t));
                exclude.push(self.spec.reg_index(r));
                r
            }
            Loc::Mem | Loc::None => {
                // Second chance: reload into a register and let it stay
                // there until evicted.
                let at = Point::before(gi);
                let r = self.alloc(t, at, rp, rp, exclude, pre);
                self.ensure_slot(t);
                pre.push(Ins::tagged(
                    Inst::SpillLoad { dst: Reg::Phys(r), temp: t },
                    SpillTag::EvictLoad,
                ));
                self.stats.record_insert(SpillTag::EvictLoad);
                self.stats.lifetime_splits += 1;
                if self.sink.enabled() {
                    self.sink.event(&TraceEvent::Reload { temp: t, reg: r, at: rp });
                }
                // A reload makes register and memory home consistent.
                self.consistent[t.index()] = true;
                self.wrote_local.insert(t.index()); // the reload wrote r
                exclude.push(self.spec.reg_index(r));
                r
            }
        }
    }

    /// Processes the definition of `t` at instruction `gi`.
    fn process_def(
        &mut self,
        t: Temp,
        gi: u32,
        exclude: &mut Vec<usize>,
        pre: &mut Vec<Ins>,
    ) -> PhysReg {
        let wp = Point::write(gi);
        let r = match self.loc[t.index()] {
            Loc::Reg(r) => {
                debug_assert_eq!(self.occupant[self.spec.reg_index(r)], Some(t));
                r
            }
            Loc::Mem | Loc::None => {
                // "If the next reference to a spilled temporary is a write,
                // we allocate [a register] and postpone the store" (§2.3).
                let rp = Point::read(gi);
                let r = self.alloc(t, wp, wp, rp, exclude, pre);
                if self.sink.enabled() {
                    self.sink.event(&TraceEvent::DefRebind { temp: t, reg: r, at: wp });
                }
                r
            }
        };
        self.consistent[t.index()] = false; // register now ahead of memory
        self.wrote_local.insert(t.index());
        exclude.push(self.spec.reg_index(r));
        r
    }

    /// The §2.5 move-coalescing check: when the just-rewritten source of a
    /// move dies at the move and its register's hole covers the
    /// destination's whole lifetime, bind the destination to the source
    /// register (the peephole pass later deletes the identity move).
    fn try_coalesce_move(&mut self, dst: Temp, src_phys: PhysReg, gi: u32) -> Option<PhysReg> {
        if !self.cfg.move_coalescing {
            return None;
        }
        let wp = Point::write(gi);
        let outcome = self.coalesce_outcome(dst, src_phys, wp);
        if self.sink.enabled() {
            let ev = TraceEvent::CoalesceCheck { dst, src: src_phys, at: wp, outcome };
            self.sink.event(&ev);
        }
        if outcome != CoalesceOutcome::Coalesced {
            return None;
        }
        self.bind(dst, self.spec.reg_index(src_phys));
        self.consistent[dst.index()] = false;
        self.wrote_local.insert(dst.index());
        self.stats.moves_coalesced += 1;
        Some(src_phys)
    }

    /// Classifies the §2.5 move-coalescing check without committing it.
    fn coalesce_outcome(&mut self, dst: Temp, src_phys: PhysReg, wp: Point) -> CoalesceOutcome {
        if self.loc[dst.index()] == Loc::Reg(src_phys) {
            return CoalesceOutcome::AlreadyThere; // normal path handles it
        }
        if !matches!(self.loc[dst.index()], Loc::None) {
            return CoalesceOutcome::NotFresh; // only coalesce a fresh destination
        }
        if self.f.temp_class(dst) != src_phys.class {
            return CoalesceOutcome::ClassMismatch;
        }
        let d = self.spec.reg_index(src_phys);
        match self.reg_free_until(d, wp, dst) {
            Some(free_until) if free_until >= self.lifetime_end(dst) => CoalesceOutcome::Coalesced,
            _ => CoalesceOutcome::HoleTooSmall,
        }
    }

    /// The occupancy invariant: a temporary believing it owns a register
    /// must actually be that register's occupant. [`Scanner::block_end`]'s
    /// `ARE_CONSISTENT` harvest walks the register file instead of the
    /// temporaries and is exact only while this holds, so debug builds check
    /// it at every block end.
    #[cfg(debug_assertions)]
    fn check_invariants(&self, b: lsra_ir::BlockId) {
        for (t, loc) in self.loc.iter().enumerate() {
            if let Loc::Reg(r) = *loc {
                let occupant = self.occupant[self.spec.reg_index(r)];
                assert_eq!(
                    occupant,
                    Some(Temp(t as u32)),
                    "t{t} claims {r} at the bottom of {b} in {}",
                    self.f.name
                );
            }
        }
    }

    fn block_start(&mut self, b: lsra_ir::BlockId) {
        self.cur_top = self.lt.top(b);
        if self.sink.enabled() {
            self.sink.event(&TraceEvent::BlockTop { block: b, first_gi: self.lt.first_inst(b) });
        }
        self.wrote_local.advance();
        self.used_local.advance();
        if self.cfg.consistency == ConsistencyMode::Conservative {
            // §2.6: meet of the saved ARE_CONSISTENT vectors of all
            // predecessors; no predecessor, or an unscanned one, clears
            // everything.
            let mut meet = BitSet::new(self.live.num_globals());
            let preds = self.graph.preds(b);
            if let Some((first, rest)) = preds.split_first() {
                if preds.iter().all(|p| p.index() < b.index()) {
                    meet.union_with(&self.out.consistent_bottom[first.index()]);
                    for p in rest {
                        meet.intersect_with(&self.out.consistent_bottom[p.index()]);
                    }
                }
            }
            for g in 0..self.live.num_globals() {
                let t = self.live.temp_of(g);
                self.consistent[t.index()] = meet.contains(g);
            }
        }
        // Restore hole-displaced temporaries: a live-in temporary whose
        // lifetime hole (filled by a shorter lifetime, §2.1-§2.2) ends at
        // this block boundary gets its old register back when that register
        // is free again. This realises the binpacking model's rule that the
        // container keeps its register around the filler's lifetime; the
        // top-of-block map records the restored location and resolution
        // honours it on every incoming edge.
        let top = self.lt.top(b);
        let mut live_in = std::mem::take(&mut self.live_in);
        live_in.clear();
        live_in.extend(self.live.live_in_temps(b));
        for &t in &live_in {
            if self.loc[t.index()] != Loc::None {
                continue;
            }
            if let Some(d) = self.last_reg[t.index()] {
                let seg_end = {
                    self.advance_segs(t, top);
                    let segs = self.lt.segments(t);
                    match segs.get(self.seg_cur[t.index()]) {
                        Some(s) if s.start <= top => s.end,
                        _ => continue,
                    }
                };
                if let Some(free_until) = self.reg_free_until(d, top, t) {
                    if free_until >= seg_end {
                        if self.sink.enabled() {
                            let ev = TraceEvent::HoleRestore {
                                block: b,
                                temp: t,
                                reg: self.spec.reg_at(d),
                            };
                            self.sink.event(&ev);
                        }
                        self.bind(t, d);
                    }
                }
            }
        }
        // Record the top-of-block locations of live-in temporaries; a
        // live-in temporary with no location yet is pessimistically given
        // its memory home (the linear order reached this block before any
        // definition — resolution will satisfy the assumption, §2.4).
        for &t in &live_in {
            match self.loc[t.index()] {
                Loc::Reg(r) => self.out.top_map.push((t, r)),
                Loc::Mem => {}
                Loc::None => {
                    if self.sink.enabled() {
                        self.sink.event(&TraceEvent::Pessimize { block: b, temp: t });
                    }
                    self.loc[t.index()] = Loc::Mem;
                }
            }
        }
        self.out.top_map.open_row_mut().sort_unstable();
        self.out.top_map.finish_row();
        self.live_in = live_in;
    }

    fn block_end(&mut self, b: lsra_ir::BlockId) {
        let bi = b.index();
        for t in self.live.live_out_temps(b) {
            match self.loc[t.index()] {
                Loc::Reg(r) => self.out.bottom_map.push((t, r)),
                Loc::Mem => {}
                Loc::None => {
                    self.loc[t.index()] = Loc::Mem;
                }
            }
        }
        self.out.bottom_map.open_row_mut().sort_unstable();
        self.out.bottom_map.finish_row();
        // ARE_CONSISTENT at the block bottom: a temporary in a register
        // with `consistent` set. Walking the register file finds exactly
        // the temporaries with `Loc::Reg` (the occupancy invariant checked
        // by `check_invariants`), so this costs O(registers) per block
        // instead of O(globals).
        #[cfg(debug_assertions)]
        self.check_invariants(b);
        for d in 0..self.occupant.len() {
            if let Some(u) = self.occupant[d] {
                if self.loc[u.index()] == Loc::Reg(self.spec.reg_at(d))
                    && self.consistent[u.index()]
                {
                    if let Some(g) = self.live.global_of(u) {
                        self.out.consistent_bottom[bi].insert(g);
                    }
                }
            }
        }
        // The USED_C GEN/KILL sets only need the temporaries actually
        // touched in this block — the epoch sets recorded them.
        for &t in self.used_local.touched() {
            if let Some(g) = self.live.global_of(Temp(t)) {
                self.out.used_consistency[bi].insert(g);
            }
        }
        for &t in self.wrote_local.touched() {
            if let Some(g) = self.live.global_of(Temp(t)) {
                self.out.wrote_tr[bi].insert(g);
            }
        }
    }

    /// Runs the scan over the whole function, rewriting it in place.
    pub(crate) fn run(mut self) -> ScanOutput {
        self.stats.candidates = self.f.num_temps();
        // Per-instruction buffers live in the scratch arena: cleared on
        // every use, allocated (at most) once per module.
        let mut pre = std::mem::take(&mut self.scratch.pre);
        let mut exclude = std::mem::take(&mut self.scratch.exclude);
        let mut use_map = std::mem::take(&mut self.scratch.use_map);
        let mut def_exclude = std::mem::take(&mut self.scratch.def_exclude);
        for b in self.f.block_ids().collect::<Vec<_>>() {
            self.block_start(b);
            let insts = std::mem::take(&mut self.f.block_mut(b).insts);
            let mut new_insts: Vec<Ins> = Vec::with_capacity(insts.len() + 4);
            let first = self.lt.first_inst(b);
            for (k, mut ins) in insts.into_iter().enumerate() {
                let gi = first + k as u32;
                let rp = Point::read(gi);
                let wp = Point::write(gi);
                if self.sink.enabled() {
                    // Register pressure at this program point: registers
                    // currently bound to a value (stale occupancies of
                    // displaced or dead temporaries don't count).
                    let mut int_regs = 0;
                    let mut float_regs = 0;
                    for d in 0..self.occupant.len() {
                        let held = self.occupant[d]
                            .is_some_and(|u| self.loc[u.index()] == Loc::Reg(self.spec.reg_at(d)));
                        if held {
                            match self.spec.reg_at(d).class {
                                RegClass::Int => int_regs += 1,
                                RegClass::Float => float_regs += 1,
                            }
                        }
                    }
                    self.sink.event(&TraceEvent::Pressure { gi, int_regs, float_regs });
                }
                pre.clear();
                // Convention sweep for register holes expiring at the read
                // slot (call clobbers, precolored uses).
                self.sweep(rp, &mut pre, &[]);

                // Rewrite uses in one traversal: each distinct temporary is
                // processed on first sight (in operand order, as before) and
                // repeats reuse the mapped register. `exclude` accumulates
                // registers pinned by this instruction.
                exclude.clear();
                use_map.clear();
                ins.inst.for_each_use_mut(|r| {
                    if let Reg::Temp(t) = *r {
                        let p = match use_map.iter().find(|(u, _)| *u == t) {
                            Some(&(_, p)) => p,
                            None => {
                                let p = self.process_use(t, gi, &mut exclude, &mut pre);
                                use_map.push((t, p));
                                p
                            }
                        };
                        *r = Reg::Phys(p);
                    }
                });

                // Convention sweep for holes expiring at the write slot
                // (precolored definitions such as argument-register moves).
                // The registers feeding this instruction are pinned: code
                // emitted before the instruction must not overwrite them.
                self.sweep(wp, &mut pre, &exclude);

                // Rewrite the definition, trying the move-coalescing check
                // first (§2.5).
                let mut def_temp: Option<Temp> = None;
                ins.inst.for_each_def(|r| {
                    if let Reg::Temp(t) = r {
                        def_temp = Some(t);
                    }
                });
                if let Some(t) = def_temp {
                    let coalesced = match ins.inst {
                        Inst::Mov { src: Reg::Phys(p), .. } => self.try_coalesce_move(t, p, gi),
                        _ => None,
                    };
                    // The definition may reuse (or evict) a source register:
                    // sources are read before the write slot, so no register
                    // is excluded here; eviction stores land before the
                    // instruction while the value is still intact.
                    def_exclude.clear();
                    let r = match coalesced {
                        Some(r) => r,
                        None => self.process_def(t, gi, &mut def_exclude, &mut pre),
                    };
                    ins.inst.for_each_def_mut(|d| {
                        if matches!(*d, Reg::Temp(_)) {
                            *d = Reg::Phys(r);
                        }
                    });
                }
                new_insts.append(&mut pre);
                new_insts.push(ins);
            }
            self.f.block_mut(b).insts = new_insts;
            self.block_end(b);
        }
        // Hand every working vector back to the arena for the next function.
        self.scratch.pre = pre;
        self.scratch.exclude = exclude;
        self.scratch.use_map = use_map;
        self.scratch.def_exclude = def_exclude;
        self.scratch.occupant = std::mem::take(&mut self.occupant);
        self.scratch.loc = std::mem::take(&mut self.loc);
        self.scratch.consistent = std::mem::take(&mut self.consistent);
        self.scratch.wrote_local = std::mem::take(&mut self.wrote_local);
        self.scratch.used_local = std::mem::take(&mut self.used_local);
        self.scratch.seg_cur = std::mem::take(&mut self.seg_cur);
        self.scratch.ref_cur = std::mem::take(&mut self.ref_cur);
        self.scratch.blk_cur = std::mem::take(&mut self.blk_cur);
        self.scratch.last_reg = std::mem::take(&mut self.last_reg);
        self.scratch.pending_owner = std::mem::take(&mut self.pending_owner);
        self.scratch.live_in = std::mem::take(&mut self.live_in);
        self.scratch.blocked_events = std::mem::take(&mut self.blocked_events);
        self.scratch.unblocked_cache = std::mem::take(&mut self.unblocked_cache);
        self.scratch.live_cache = std::mem::take(&mut self.live_cache);
        self.scratch.free_candidates = std::mem::take(&mut self.free_candidates);
        self.scratch.interesting = std::mem::take(&mut self.interesting);
        self.scratch.hole_expiry = std::mem::take(&mut self.hole_expiry);
        self.out
    }
}
