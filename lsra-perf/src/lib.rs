//! The parts of `lsra-perf` other tools can reuse: the one name table of
//! workloads and metrics, the host-speed calibration, and the statistics the
//! benchmark reports and compares with (percentiles, quartiles, geometric
//! mean, agreement within a bound). The runner itself is the `lsra-perf`
//! binary.

pub mod host;
pub mod names;
pub mod stats;
