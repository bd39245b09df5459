//! Annotated IR dump: the allocated module's text with the decision trace
//! interleaved (regalloc2-style debug annotations).
//!
//! Each decision prints as a `;`-comment immediately above the instruction
//! it anchors to, so "why is there a reload here?" is answered in place:
//!
//! ```text
//! bb1:
//!       ; [5r] spill choice for t4 at 5r: r0:t1(prio 0.0312, ...) => evict r0
//!       ; [5r] evict t1 from r0 at 5r (pressure): stored
//!       ; [5r] second-chance reload t4 -> r0 at 5r
//!   r0 = reload t4 (slot 0)    ; EvictLoad
//!   r1 = add r1, r0
//! ```
//!
//! The mapping relies on two invariants: spill code inserted by the
//! allocator is tagged ([`SpillTag`]`!= None`) while original instructions
//! are untagged, and the scan emits a [`TraceEvent::BlockTop`] carrying
//! each block's first global instruction index. The module must therefore
//! be rendered *before* identity-move removal (which deletes untagged
//! moves), exactly like the symbolic checker.

use std::collections::BTreeMap;

use lsra_ir::{Function, Module, SpillTag};

use crate::event::TraceEvent;

/// Renders `m` (allocated, before identity-move removal) with the decision
/// trace `events` interleaved as comments.
pub fn annotate(m: &Module, events: &[TraceEvent]) -> String {
    let mut out = String::new();
    out.push_str(&format!("module {} (annotated decision trace)\n", m.name));
    for chunk in split_functions(events) {
        let Some(f) = m.funcs.iter().find(|f| f.name == chunk.name) else { continue };
        annotate_function(&mut out, f, &chunk);
    }
    out
}

/// Events of one function, pre-sorted into anchor bins.
struct FuncChunk<'a> {
    name: String,
    /// Function-level header events (lifetimes, two-pass packing).
    header: Vec<&'a TraceEvent>,
    /// First global instruction index per block index.
    first_gi: BTreeMap<usize, u32>,
    /// Block-boundary events (restores, pessimizations) per block index.
    at_block: BTreeMap<usize, Vec<&'a TraceEvent>>,
    /// Decision events per global instruction index.
    at_gi: BTreeMap<u32, Vec<&'a TraceEvent>>,
    /// Resolution and dataflow events (no instruction anchor).
    trailer: Vec<&'a TraceEvent>,
}

fn split_functions(events: &[TraceEvent]) -> Vec<FuncChunk<'_>> {
    let mut chunks: Vec<FuncChunk<'_>> = Vec::new();
    let mut cur: Option<FuncChunk<'_>> = None;
    for ev in events {
        match ev {
            TraceEvent::FunctionBegin { name, .. } => {
                if let Some(c) = cur.take() {
                    chunks.push(c);
                }
                cur = Some(FuncChunk {
                    name: name.clone(),
                    header: Vec::new(),
                    first_gi: BTreeMap::new(),
                    at_block: BTreeMap::new(),
                    at_gi: BTreeMap::new(),
                    trailer: Vec::new(),
                });
            }
            TraceEvent::FunctionEnd { .. } => {
                if let Some(c) = cur.take() {
                    chunks.push(c);
                }
            }
            ev => {
                let Some(c) = cur.as_mut() else { continue };
                match ev {
                    TraceEvent::LifetimesBuilt { .. }
                    | TraceEvent::PackAssign { .. }
                    | TraceEvent::PackSpill { .. } => c.header.push(ev),
                    TraceEvent::BlockTop { block, first_gi } => {
                        c.first_gi.insert(block.index(), *first_gi);
                    }
                    TraceEvent::HoleRestore { block, .. } | TraceEvent::Pessimize { block, .. } => {
                        c.at_block.entry(block.index()).or_default().push(ev);
                    }
                    TraceEvent::EdgeOp { .. }
                    | TraceEvent::ConsistencyDone { .. }
                    | TraceEvent::Phase { .. } => c.trailer.push(ev),
                    // Pressure samples are too dense for an interleaved
                    // dump; the metrics report histograms them instead.
                    TraceEvent::Pressure { .. } => {}
                    ev => match ev.anchor_gi() {
                        Some(gi) => c.at_gi.entry(gi).or_default().push(ev),
                        None => c.trailer.push(ev),
                    },
                }
            }
        }
    }
    if let Some(c) = cur.take() {
        chunks.push(c);
    }
    chunks
}

fn annotate_function(out: &mut String, f: &Function, chunk: &FuncChunk<'_>) {
    out.push_str(&format!("\nfunc @{}:\n", f.name));
    for ev in &chunk.header {
        out.push_str(&format!("    ; {}\n", ev.describe()));
    }
    for b in f.block_ids() {
        out.push_str(&format!("{b}:\n"));
        for ev in chunk.at_block.get(&b.index()).into_iter().flatten() {
            out.push_str(&format!("      ; {}\n", ev.describe()));
        }
        let mut next_gi = chunk.first_gi.get(&b.index()).copied();
        for ins in &f.block(b).insts {
            // Untagged instructions are the original stream; their global
            // indices advance the annotation cursor. Tagged spill code was
            // inserted by the allocator (it *is* the decisions' output) and
            // prints without consuming an index.
            if ins.tag == SpillTag::None {
                if let Some(gi) = next_gi {
                    for ev in chunk.at_gi.get(&gi).into_iter().flatten() {
                        let pt = match ev.point() {
                            Some(p) => format!("[{p}] "),
                            None => String::new(),
                        };
                        out.push_str(&format!("      ; {pt}{}\n", ev.describe()));
                    }
                    next_gi = Some(gi + 1);
                }
            }
            out.push_str(&format!("  {}", f.display_inst(&ins.inst)));
            if ins.tag != SpillTag::None {
                out.push_str(&format!("    ; {}", ins.tag.name()));
            }
            out.push('\n');
        }
    }
    if !chunk.trailer.is_empty() {
        out.push_str("    ; resolution:\n");
        for ev in &chunk.trailer {
            out.push_str(&format!("    ;   {}\n", ev.describe()));
        }
    }
}
