//! Correctness accounting: every checked operation is counted as attempted,
//! and every failed check as failed. Checks never panic, so one bad result
//! is reported instead of ending the run.

use lsra_jit::JitRunError;
use lsra_vm::{compare_runs, RunResult};

/// How many first failure messages are kept for the report.
const KEPT_FAILURES: usize = 5;

/// Attempted and failed operation counts, plus the first few failures.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// The first failure messages, for the report.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation; `problem` is `Some` when its check failed.
    pub fn record(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(msg) = problem {
            self.failed += 1;
            if self.failures.len() < KEPT_FAILURES {
                self.failures.push(msg);
            }
        }
    }

    /// Counts one service response compared byte-for-byte with the response
    /// computed directly during set-up.
    pub fn response(&mut self, what: &str, expected: &str, got: &str) {
        self.record((expected != got).then(|| {
            let at = expected.bytes().zip(got.bytes()).take_while(|(a, b)| a == b).count();
            format!("{what}: response differs from the expected one at byte {at}")
        }));
    }

    /// Counts one run of allocated code checked against a run of the
    /// unallocated program.
    pub fn run(&mut self, what: &str, reference: &RunResult, got: &Result<RunResult, String>) {
        self.record(match got {
            Ok(r) => compare_runs(reference, r).err().map(|m| format!("{what}: {m}")),
            Err(e) => Some(format!("{what}: {e}")),
        });
    }

    /// Share of attempted operations that failed.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// A native run's error as text.
pub fn native_error(e: JitRunError) -> String {
    format!("native run: {e}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsra_vm::{DynCounts, OutputEvent};

    fn result(ret: i64) -> RunResult {
        RunResult {
            ret: Some(ret),
            output: vec![OutputEvent::Int(ret)],
            counts: DynCounts::default(),
            memory_checksum: 7,
        }
    }

    #[test]
    fn corrupted_response_and_mismatching_run_are_both_counted() {
        let mut t = Tally::default();
        let expected = r#"{"id": "0", "status": "ok"}"#;
        t.response("req 0", expected, expected);
        let corrupted = expected.replace("ok", "ko");
        t.response("req 0", &corrupted, expected);
        t.run("wc/binpack", &result(1), &Ok(result(1)));
        t.run("wc/binpack", &result(1), &Ok(result(2)));
        t.run("wc/ion", &result(1), &Err("native run: fuel exhausted".into()));
        assert_eq!((t.attempted, t.failed), (5, 3));
        assert!(t.failures[0].contains("byte 23"), "{:?}", t.failures);
        assert!(t.failures[1].contains("return value changed"), "{:?}", t.failures);
        assert!((t.error_rate() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_tally_has_zero_error_rate() {
        assert_eq!(Tally::default().error_rate(), 0.0);
    }
}
