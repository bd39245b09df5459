//! Structured observability for the linear-scan allocators.
//!
//! The allocator core emits [`TraceEvent`]s at every decision point —
//! lifetime construction, bin assignment, spill choice (with the full
//! candidate set and each loser's heuristic distance), eviction,
//! second-chance reload, coalesce check, resolution edge op, consistency
//! store — into a [`TraceSink`]. The default [`NoopSink`] is disabled, so
//! an untraced run pays one predictable branch per potential event and
//! builds no payloads; traced and untraced runs produce byte-identical
//! allocations (pinned by the determinism suite).
//!
//! Consumers of the stream:
//! - [`LogSink`]: human-readable decision log.
//! - [`JsonlSink`]: one JSON object per event per line, machine-parseable.
//! - [`ChromeSink`]: Chrome `trace_event` JSON, loadable in Perfetto.
//! - [`RecordSink`] + [`annotate()`]: the allocated IR with decisions
//!   interleaved as comments (regalloc2-style).
//! - [`MetricsSink`]: counters and fixed-bucket histograms per function
//!   (register pressure, hole-fit rate, spill reasons, resolution op mix).
//!
//! The crate also owns the repo's one JSON module ([`json`]): the
//! escaping-safe [`json::JsonWriter`] shared by the sinks, `lsra bench`,
//! the service and the benchmark harness, and the depth-bounded
//! [`json::parse`] that reads requests and backs [`json::validate`].

#![warn(missing_docs)]

pub mod annotate;
pub mod chrome;
pub mod event;
pub mod json;
pub mod metrics;
pub mod sink;
pub mod sinks;

pub use annotate::annotate;
pub use chrome::ChromeSink;
pub use event::{
    CoalesceOutcome, EvictAction, FitTier, ResolveOp, SpillCandidate, SplitKind, TraceEvent,
};
pub use json::JsonWriter;
pub use metrics::{
    FunctionMetrics, Histogram, MetricsSink, ModuleMetrics, QualityLintSummary, VerifyNativeSummary,
};
pub use sink::{NoopSink, RecordSink, TraceSink};
pub use sinks::{JsonlSink, LogSink};
