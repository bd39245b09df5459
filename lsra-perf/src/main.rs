//! `lsra-perf`: the repository's benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path lsra-perf/Cargo.toml -- --seed 1998
//! cargo run --release --manifest-path lsra-perf/Cargo.toml -- --workload table3 --trace 1
//! ```
//!
//! Without `--workload` every workload runs, each in a child process of this
//! program, so each reports its own peak memory. With `--trace 0` a run
//! reports the end-to-end metrics; with `--trace 1` it reports the per-layer
//! metrics of a separate traced pass and writes its spans as a Chrome trace
//! next to `--out`. Every run appends one revision-stamped JSON record to
//! `--out` and prints, as its last line, a JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `README.md` for the workloads and
//! metrics.

mod check;
mod compile;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use lsra_perf::host::HostSpeed;
use lsra_perf::{names, stats};
use lsra_trace::json::JsonWriter;

use check::Tally;
use names::{Metric, ALLOCATORS, WORKLOADS};

/// Set-ups per run: at least [`MIN_SETUPS`], and more while they have taken
/// less than [`SETUP_SECONDS`] in all, up to [`MAX_SETUPS`]. The median is
/// reported as `setup_s`, so a short set-up is timed often enough to be
/// steady.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 50;
const SETUP_SECONDS: f64 = 2.5;

/// Settings of one workload run.
#[derive(Debug)]
pub struct Opts {
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics.
    pub traced: bool,
    /// Smoke-test sizes (tiny inputs, a single round).
    pub tiny: bool,
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Correctness accounting.
    pub tally: Tally,
    /// Measured values by metric name.
    pub values: BTreeMap<String, f64>,
    /// Supporting figures for people, e.g. a tail percentile with its
    /// sample count.
    pub notes: Vec<(String, String)>,
    /// The traced pass's spans as a Chrome trace document.
    pub trace: Option<String>,
    /// Kernel runs of the set-ups and the measured pass, which scale their
    /// times.
    pub host: HostSpeed,
}

impl Report {
    /// Sets metric `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Adds a note line.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }
}

/// Adds `value` to the running sum under `key`.
pub fn add(sums: &mut BTreeMap<String, f64>, key: impl Into<String>, value: f64) {
    *sums.entry(key.into()).or_insert(0.0) += value;
}

/// Sets `alloc_minsts_per_s.<A>` for every allocator: static instructions
/// allocated per second, total over total, where each item's seconds are
/// its fastest sample, which brief contention from other processes does not
/// move. `items` yields `(allocator index, static instructions, seconds
/// samples)`; items without samples are skipped.
pub fn set_alloc_throughput<'a>(
    report: &mut Report,
    items: impl IntoIterator<Item = (usize, usize, &'a [f64])>,
) {
    let mut sums = [(0.0, 0.0); ALLOCATORS.len()];
    for (alloc, insts, secs) in items {
        if let Some(s) = secs.iter().copied().reduce(f64::min) {
            sums[alloc].0 += insts as f64;
            sums[alloc].1 += s;
        }
    }
    for (name, (insts, secs)) in ALLOCATORS.iter().zip(sums) {
        if secs > 0.0 {
            report.set(format!("alloc_minsts_per_s.{name}"), insts / secs / 1e6);
        }
    }
}

/// Notes the median of every measured latency `all` (ms) and the highest
/// percentile with at least [`stats::MIN_BEYOND`] samples beyond it. These
/// are the times as the host gave them, unscaled and with every slow sample.
pub fn note_latencies(report: &mut Report, all: &[f64]) {
    report.note("latency_samples", all.len());
    if let Some(v) = stats::median(all) {
        report.note("latency_all_p50_ms", v);
    }
    if let Some((label, v)) = stats::tail(all).filter(|(label, _)| *label != "p50") {
        report.note(&format!("latency_all_{label}_ms"), v);
    }
}

/// Runs `setup` as often as [`MIN_SETUPS`], [`MAX_SETUPS`] and
/// [`SETUP_SECONDS`] ask, ticking `host` between set-ups, and returns the
/// last result with the set-up times (the instant each ended, and its
/// seconds).
pub fn timed_setup<T>(
    host: &mut HostSpeed,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<(Instant, f64)>), String> {
    let mut times: Vec<(Instant, f64)> = Vec::new();
    let mut last = None;
    while times.len() < MIN_SETUPS
        || (times.len() < MAX_SETUPS && times.iter().map(|t| t.1).sum::<f64>() < SETUP_SECONDS)
    {
        host.tick();
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push((Instant::now(), t.elapsed().as_secs_f64()));
    }
    host.tick();
    Ok((last.expect("at least one set-up"), times))
}

/// Sets `setup_s`: the median set-up time, each scaled to the nominal host.
/// Call it after the measured pass, whose kernel runs also scale the last
/// set-ups.
pub fn set_setup(report: &mut Report, times: &[(Instant, f64)]) {
    let scaled: Vec<f64> = times.iter().map(|&(at, s)| report.host.scaled(at, s)).collect();
    report.set("setup_s", stats::median(&scaled).expect("set-up times"));
    report.note("setups", times.len());
}

fn run_workload(name: &str, opts: &Opts) -> Result<Report, String> {
    match name {
        "spec-native" | "table3" | "scale-huge" => compile::run(name, opts),
        "serve" => serve::run(opts),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Output of `git args` in the current directory, when it is a checkout.
fn git(args: &[&str]) -> Option<String> {
    if !Path::new(".git").exists() {
        return None;
    }
    let out = Command::new("git").args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The result line: `correct`, `attempted`, `failed` and every reported
/// metric with its unit.
fn result_line(report: &Report, metrics: &[Metric]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("correct");
    w.bool(report.tally.failed == 0);
    w.field_uint("attempted", report.tally.attempted);
    w.field_uint("failed", report.tally.failed);
    w.key("metrics");
    write_metrics(&mut w, report, metrics);
    w.end_object();
    w.finish()
}

fn write_metrics(w: &mut JsonWriter, report: &Report, metrics: &[Metric]) {
    w.begin_object();
    for m in metrics {
        w.key(&m.name);
        w.begin_object();
        w.field_float("value", report.values[&m.name]);
        w.field_str("unit", m.unit);
        w.end_object();
    }
    w.end_object();
}

/// One JSONL record: the result plus what is needed to compare it later.
fn record(workload: &str, opts: &Opts, report: &Report, metrics: &[Metric]) -> String {
    let rev = git(&["rev-parse", "HEAD"]);
    let dirty = git(&["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty());
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("workload", workload);
    w.field_uint("seed", opts.seed);
    w.field_float("seconds", opts.seconds);
    w.key("trace");
    w.bool(opts.traced);
    w.key("tiny");
    w.bool(opts.tiny);
    w.field_str("git_rev", rev.as_deref().unwrap_or("unknown"));
    w.key("git_dirty");
    match dirty {
        Some(d) => w.bool(d),
        None => w.null(),
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    w.field_uint("nproc", nproc as u64);
    w.key("jit_supported");
    w.bool(lsra_jit::jit_supported());
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    w.field_uint("unix_time_s", unix);
    w.key("correct");
    w.bool(report.tally.failed == 0);
    w.field_uint("attempted", report.tally.attempted);
    w.field_uint("failed", report.tally.failed);
    w.field_float("error_rate", report.tally.error_rate());
    w.key("metrics");
    write_metrics(&mut w, report, metrics);
    w.key("notes");
    w.begin_object();
    for (k, v) in &report.notes {
        w.field_str(k, v);
    }
    w.end_object();
    w.end_object();
    w.finish()
}

fn append_line(path: &Path, line: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    f.write_all(format!("{line}\n").as_bytes()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Notes the kernel runs that scaled the measured times.
fn note_host(report: &mut Report) {
    let k = report.host.kernel_seconds();
    report.note("host_kernel_runs", k.len());
    if let (Some(best), Some(median)) = (k.iter().copied().reduce(f64::min), stats::median(&k)) {
        report.note("host_kernel_best_ms", best * 1e3);
        report.note("host_kernel_median_ms", median * 1e3);
    }
}

/// Runs one workload in this process and prints its metrics and result
/// line. Exits 1 when a check failed, 2 when the run could not complete.
fn single(workload: &str, opts: &Opts, out: &Path) -> ExitCode {
    let mut report = match run_workload(workload, opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lsra-perf: {workload}: {e}");
            return ExitCode::from(2);
        }
    };
    let metrics = names::reported(opts.traced);
    if !opts.traced {
        match peak_rss_mib() {
            Ok(v) => report.set("peak_rss_mib", v),
            Err(e) => {
                eprintln!("lsra-perf: {e}");
                return ExitCode::from(2);
            }
        }
    }
    for m in &metrics {
        if !report.values.contains_key(&m.name) {
            if opts.traced {
                // A layer this workload does not exercise.
                report.set(m.name.clone(), 0.0);
            } else {
                eprintln!("lsra-perf: {workload} did not measure `{}`", m.name);
                return ExitCode::from(2);
            }
        }
    }
    if !opts.traced {
        note_host(&mut report);
    }
    println!(
        "workload {workload} seed {} seconds {} trace {}",
        opts.seed, opts.seconds, opts.traced as u8
    );
    for m in &metrics {
        println!("metric {} {} {}", m.name, report.values[&m.name], m.unit);
    }
    for (k, v) in &report.notes {
        println!("note {k} {v}");
    }
    println!(
        "checks attempted {} failed {} error_rate {}",
        report.tally.attempted,
        report.tally.failed,
        report.tally.error_rate()
    );
    for f in &report.tally.failures {
        eprintln!("lsra-perf: {workload}: FAILED {f}");
    }
    if let Err(e) = append_line(out, &record(workload, opts, &report, &metrics)) {
        eprintln!("lsra-perf: {e}");
        return ExitCode::from(2);
    }
    if let Some(doc) = &report.trace {
        let path = out.with_file_name(format!("trace-{workload}-{}.json", opts.seed));
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("lsra-perf: {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("trace {}", path.display());
    }
    println!("{}", result_line(&report, &metrics));
    if report.tally.failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Runs every workload, each in a child process of this program, and exits
/// nonzero if any of them failed.
fn all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("lsra-perf: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        println!("== {}: {}", w.name, w.why);
        let out = Command::new(&exe).arg("--workload").arg(w.name).args(args).output();
        match out {
            Ok(o) => {
                print!("{}", String::from_utf8_lossy(&o.stdout));
                eprint!("{}", String::from_utf8_lossy(&o.stderr));
                if !o.status.success() {
                    eprintln!("lsra-perf: workload {} exited with {}", w.name, o.status);
                    ok = false;
                }
            }
            Err(e) => {
                eprintln!("lsra-perf: cannot start workload {}: {e}", w.name);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

const USAGE: &str = "usage: lsra-perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--tiny]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts { seed: 1998, seconds: 24.0, traced: false, tiny: false };
    let mut workload: Option<String> = None;
    let mut out = PathBuf::from("target/lsra-perf/results.jsonl");
    let mut passthrough = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            opts.tiny = true;
            passthrough.push(flag.clone());
            continue;
        }
        let Some(value) = it.next() else {
            eprintln!("lsra-perf: `{flag}` needs a value\n{USAGE}");
            return ExitCode::from(2);
        };
        let parsed = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                Ok(())
            }
            "--seed" => value.parse().map(|v| opts.seed = v).map_err(|e| e.to_string()),
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v > 0.0 && v.is_finite() => {
                    opts.seconds = v;
                    Ok(())
                }
                _ => Err("expected a positive number".to_string()),
            },
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    opts.traced = value == "1";
                    Ok(())
                }
                _ => Err("expected 0 or 1".to_string()),
            },
            "--out" => {
                out = PathBuf::from(value);
                Ok(())
            }
            _ => Err("unknown flag".to_string()),
        };
        if let Err(e) = parsed {
            eprintln!("lsra-perf: {flag} {value}: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
        if flag != "--workload" {
            passthrough.extend([flag.clone(), value.clone()]);
        }
    }
    match workload {
        Some(w) if names::workload(&w).is_none() => {
            eprintln!("lsra-perf: unknown workload `{w}`\n{USAGE}");
            ExitCode::from(2)
        }
        Some(w) => single(&w, &opts, &out),
        None => all(&passthrough),
    }
}
