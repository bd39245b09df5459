//! The allocation service: a batched, cached, backpressured server over
//! the register allocators, plus the load generator that verifies it.
//!
//! The subsystem turns the allocator library into a long-lived process
//! speaking a line-delimited JSON protocol (one request line in, one
//! response line out — see [`protocol`]):
//!
//! - [`protocol`] — request parsing and byte-deterministic response
//!   rendering, both through the shared `lsra_trace::json` module
//!   (re-exported here as [`json_in`]), and the allocator registry
//!   ([`protocol::allocator_by_name`]) every front end selects from.
//! - [`cache`] — a content-addressed result cache keyed by the canonical
//!   program text plus allocator/machine/options, FNV-addressed,
//!   LRU-evicted under a byte budget, collision-safe by full-key compare.
//! - [`service`] — the bounded work queue and worker pool (one reused
//!   `AllocScratch` per worker), per-request deadlines, immediate
//!   `overloaded` backpressure, and `catch_unwind` panic isolation.
//! - [`net`] — the stdio and TCP transports behind `lsra serve`.
//! - [`telemetry`] — the metric registry behind the `metrics` op (sharded
//!   counters, gauges, log-linear latency histograms) and the
//!   `--telemetry-log` span stream with slow-request trace capture.
//! - [`loadgen`] — the deterministic load generator behind `lsra loadgen`,
//!   which verifies every response byte-for-byte against a direct,
//!   cache-free `allocate_module` run, cross-checks its own latency
//!   measurements against the server's histograms, and emits
//!   `BENCH_serve.json`.
//!
//! Responses never include wall-clock or cache-state fields, so the same
//! request always yields the same bytes — hit or miss, served or direct —
//! which is what makes both the load generator's comparison and the fuzz
//! harness's service stage exact.

#![warn(missing_docs)]

pub mod cache;
pub mod loadgen;
pub mod net;
pub mod protocol;
pub mod service;
pub mod telemetry;

pub use cache::{Cache, Outcome};
pub use loadgen::{run_loadgen, LatencySummary, LoadgenConfig, LoadgenReport};
/// The request-side JSON reader: the workspace's one JSON module.
pub use lsra_trace::json as json_in;
pub use net::{serve_lines, serve_stdio, serve_tcp};
pub use protocol::{
    expected_response_line, parse_request, render_lint, run_lint, ParsedLine, Request, STATS_FIELDS,
};
pub use service::{CountersSnapshot, PendingSpan, ServeConfig, Service};
pub use telemetry::{ServerTelemetry, SpanLog};
