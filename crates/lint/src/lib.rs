//! Static lints for the register-allocation pipeline: a small diagnostics
//! engine plus two lint families.
//!
//! * **Family A — input-IR validation** ([`lint_input`], codes `L0xx`): runs
//!   *before* allocation on user-supplied IR. It reports every finding of
//!   the IR rule walk whose first finding [`Function::validate`] returns —
//!   malformed blocks, missing blocks, callees or entry, register-class
//!   misuse — and what the rules leave to analysis: use-before-def (a
//!   forward must-dataflow over temporaries), unreachable blocks, duplicate
//!   branch targets, and critical-edge advisories.
//! * **Family B — allocation-quality lints** ([`lint_quality`], codes
//!   `Q1xx`): runs on *allocated* output, **before** identity-move removal,
//!   and flags the residues the paper's machinery exists to avoid: dead
//!   spill stores the consistency bit (§2.3) should have suppressed,
//!   redundant reloads of a value still held in a register, identity and
//!   uncoalesced move chains (§2.5), and spill code placed in blocks whose
//!   register pressure never exhausts the file.
//!
//! Every diagnostic carries a stable [`LintCode`], a [`Severity`], and a
//! span (function, block, instruction, and — when the input came from text
//! parsed with [`lsra_ir::parse_module_with_lines`] — the source line).
//! [`LintReport`] renders human-readable text or JSONL (one object per
//! diagnostic, built on [`lsra_trace::json::JsonWriter`] so output is
//! escaping-safe and byte-deterministic).
//!
//! # Examples
//!
//! ```
//! let text = "func @f() {\n  temps t0:i t1:i\nb0:\n  t1 = add t0, t0\n  ret\n}\n";
//! let (f, lines) = lsra_ir::parse_function_with_lines(text)?;
//! let report = lsra_lint::lint_input_function(&f, Some(&lines));
//! assert_eq!(report.count(lsra_lint::LintCode::UseBeforeDef), 1);
//! assert_eq!(report.diags[0].line, Some(4));
//! # Ok::<(), lsra_ir::ParseError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;
use std::ops::ControlFlow;

use lsra_ir::{BlockId, Function};
use lsra_trace::json::JsonWriter;
use lsra_trace::QualityLintSummary;

mod input;
mod quality;

pub use input::{lint_input, lint_input_function};
pub use quality::{lint_quality, lint_quality_function};

/// How serious a diagnostic is. Ordered: `Note < Warning < Error`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory: expected or merely interesting (e.g. identity moves before
    /// the postopt pass, critical edges the allocator will split itself).
    Note,
    /// Suspicious: allowed, but indicates wasted work or dubious input.
    Warning,
    /// Broken input: allocation on this IR is meaningless or will misbehave.
    Error,
}

impl Severity {
    /// Lower-case name (`note` / `warning` / `error`).
    pub fn name(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Number of shipped lint codes (the length of [`LintCode::ALL`]).
pub const NUM_CODES: usize = 19;

/// A stable lint code. `L0xx` codes are Family A (input-IR validation),
/// `Q1xx` codes are Family B (allocation quality), and `N0xx` codes are
/// Family C (native-code translation validation, emitted by the
/// `lsra-verify` crate's static machine-code verifier). The numeric code,
/// the kebab-case name, the default severity, and the one-line description
/// are all fixed per variant — see the tables in `DESIGN.md` §11 and §16.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// `L001`: a temporary is read before any definition reaches it.
    UseBeforeDef,
    /// `L002`: a block is unreachable from the entry block.
    UnreachableBlock,
    /// `L003`: a jump or branch targets a block that does not exist.
    BadBlockTarget,
    /// `L004`: both arms of a branch target the same block.
    DuplicateBranchTarget,
    /// `L005`: an operand's register class does not fit the instruction.
    ClassMismatch,
    /// `L006`: a block is empty, unterminated, or has an interior terminator.
    MalformedBlock,
    /// `L007`: a critical edge (the resolution pass will split it).
    CriticalEdge,
    /// `Q101`: a spill store whose slot is never reloaded on any path.
    DeadSpillStore,
    /// `Q102`: a reload of a slot whose value is already in a register.
    RedundantReload,
    /// `Q103`: a register-to-register move with identical source and
    /// destination (removed by the postopt pass).
    IdentityMove,
    /// `Q104`: adjacent move chain `a = b; c = a` that could read `b`
    /// directly.
    MoveChain,
    /// `Q105`: spill code in a block whose register pressure never exhausts
    /// the register file.
    LowPressureSpill,
    /// `N001`: machine bytes that do not decode as any instruction the JIT
    /// encoder can emit.
    NativeDecode,
    /// `N002`: a decoded instruction does not fit the lowering template for
    /// the allocated-IR instruction it should implement.
    NativeShape,
    /// `N003`: the symbolic effect of a template disagrees with the
    /// allocated-IR semantics (wrong source, destination, or spill offset).
    NativeDataflow,
    /// `N004`: a missing or wrong fuel check or telemetry counter update.
    NativeCounter,
    /// `N005`: a jump, branch, or fault edge resolves to the wrong target.
    NativeBranch,
    /// `N006`: a malformed prologue, stub region, or function extent.
    NativeFrame,
    /// `N007`: a call site violates the helper or intra-module call ABI.
    NativeCall,
}

const CODES: [&str; NUM_CODES] = [
    "L001", "L002", "L003", "L004", "L005", "L006", "L007", "Q101", "Q102", "Q103", "Q104", "Q105",
    "N001", "N002", "N003", "N004", "N005", "N006", "N007",
];

const NAMES: [&str; NUM_CODES] = [
    "use-before-def",
    "unreachable-block",
    "bad-block-target",
    "duplicate-branch-target",
    "class-mismatch",
    "malformed-block",
    "critical-edge",
    "dead-spill-store",
    "redundant-reload",
    "identity-move",
    "move-chain",
    "low-pressure-spill",
    "native-decode",
    "native-shape",
    "native-dataflow",
    "native-counter",
    "native-branch",
    "native-frame",
    "native-call",
];

const SEVERITIES: [Severity; NUM_CODES] = [
    Severity::Error,   // L001
    Severity::Warning, // L002
    Severity::Error,   // L003
    Severity::Warning, // L004
    Severity::Error,   // L005
    Severity::Error,   // L006
    Severity::Note,    // L007
    Severity::Warning, // Q101
    Severity::Warning, // Q102
    Severity::Note,    // Q103
    Severity::Note,    // Q104
    Severity::Note,    // Q105
    Severity::Error,   // N001
    Severity::Error,   // N002
    Severity::Error,   // N003
    Severity::Error,   // N004
    Severity::Error,   // N005
    Severity::Error,   // N006
    Severity::Error,   // N007
];

const DESCRIPTIONS: [&str; NUM_CODES] = [
    "temporary read before any definition reaches it",
    "block unreachable from the entry block",
    "jump or branch to a block that does not exist",
    "both branch arms target the same block",
    "operand register class does not fit the instruction",
    "block is empty, unterminated, or has an interior terminator",
    "critical edge (the resolution pass will split it)",
    "spill store never reloaded on any path",
    "reload of a slot value already held in a register",
    "identity register move (removed by the postopt pass)",
    "adjacent move chain that could read the original source",
    "spill code in a block whose pressure never exhausts the register file",
    "machine bytes outside the JIT encoder's instruction language",
    "decoded instruction does not fit the expected lowering template",
    "symbolic machine effect disagrees with the allocated-IR semantics",
    "missing or wrong fuel check or telemetry counter update",
    "jump, branch, or fault edge resolves to the wrong target",
    "malformed prologue, stub region, or function extent",
    "call site violates the helper or intra-module call ABI",
];

impl LintCode {
    /// Every shipped lint code, in code order (`L001..L007`, `Q101..Q105`).
    pub const ALL: [LintCode; NUM_CODES] = [
        LintCode::UseBeforeDef,
        LintCode::UnreachableBlock,
        LintCode::BadBlockTarget,
        LintCode::DuplicateBranchTarget,
        LintCode::ClassMismatch,
        LintCode::MalformedBlock,
        LintCode::CriticalEdge,
        LintCode::DeadSpillStore,
        LintCode::RedundantReload,
        LintCode::IdentityMove,
        LintCode::MoveChain,
        LintCode::LowPressureSpill,
        LintCode::NativeDecode,
        LintCode::NativeShape,
        LintCode::NativeDataflow,
        LintCode::NativeCounter,
        LintCode::NativeBranch,
        LintCode::NativeFrame,
        LintCode::NativeCall,
    ];

    /// Dense index into [`LintCode::ALL`] (and the per-code tally arrays).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The stable code string, e.g. `L001`.
    pub fn code(self) -> &'static str {
        CODES[self.index()]
    }

    /// The kebab-case name, e.g. `use-before-def`.
    pub fn name(self) -> &'static str {
        NAMES[self.index()]
    }

    /// The default severity.
    pub fn severity(self) -> Severity {
        SEVERITIES[self.index()]
    }

    /// One-line description for tables and `--help`-style output.
    pub fn description(self) -> &'static str {
        DESCRIPTIONS[self.index()]
    }

    /// True for the Family B (allocation-quality, `Q1xx`) codes.
    pub fn is_quality(self) -> bool {
        self.code().starts_with('Q')
    }

    /// True for the Family C (native translation-validation, `N0xx`) codes.
    pub fn is_native(self) -> bool {
        self.code().starts_with('N')
    }

    /// Parses a code (`L001`) or name (`use-before-def`), as the `--deny`
    /// flag and the server protocol accept them.
    pub fn parse(s: &str) -> Option<LintCode> {
        LintCode::ALL.into_iter().find(|c| c.code() == s || c.name() == s)
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One diagnostic: a [`LintCode`] plus a span and message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// The lint that fired.
    pub code: LintCode,
    /// Name of the function the diagnostic is in.
    pub func: String,
    /// Block the diagnostic points at, if block-granular.
    pub block: Option<BlockId>,
    /// Instruction index within `block`, if instruction-granular.
    pub inst: Option<usize>,
    /// 1-based source line, when the IR came from text parsed with a
    /// [`lsra_ir::FunctionLines`] map.
    pub line: Option<usize>,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// The diagnostic's severity (the code's default).
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }

    /// Serialises the diagnostic as one JSON object into `w`.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_str("code", self.code.code());
        w.field_str("name", self.code.name());
        w.field_str("severity", self.severity().name());
        w.field_str("func", &self.func);
        w.key("block");
        match self.block {
            Some(b) => w.uint(b.index() as u64),
            None => w.null(),
        }
        w.key("inst");
        match self.inst {
            Some(i) => w.uint(i as u64),
            None => w.null(),
        }
        w.key("line");
        match self.line {
            Some(l) => w.uint(l as u64),
            None => w.null(),
        }
        w.field_str("message", &self.message);
        w.end_object();
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} [{}]: in {}", self.code, self.severity(), self.code.name(), self.func)?;
        if let Some(b) = self.block {
            write!(f, ", {b}")?;
        }
        if let Some(i) = self.inst {
            write!(f, " inst {i}")?;
        }
        if let Some(l) = self.line {
            write!(f, " (line {l})")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// An ordered collection of diagnostics with counting and rendering helpers.
///
/// Diagnostics are kept in canonical order — function, then block, then
/// instruction, then code — so renderings are byte-deterministic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LintReport {
    /// The diagnostics, in canonical order.
    pub diags: Vec<Diagnostic>,
}

impl LintReport {
    /// An empty report.
    pub fn new() -> Self {
        LintReport::default()
    }

    /// Appends `other`'s diagnostics (keeping `self`'s before them — reports
    /// merge in pipeline order: Family A first, then Family B).
    pub fn merge(&mut self, other: LintReport) {
        self.diags.extend(other.diags);
    }

    /// True if nothing fired.
    pub fn is_empty(&self) -> bool {
        self.diags.is_empty()
    }

    /// Total number of diagnostics.
    pub fn len(&self) -> usize {
        self.diags.len()
    }

    /// Number of diagnostics with `code`.
    pub fn count(&self, code: LintCode) -> usize {
        self.diags.iter().filter(|d| d.code == code).count()
    }

    /// Number of diagnostics at exactly `sev`.
    pub fn count_severity(&self, sev: Severity) -> usize {
        self.diags.iter().filter(|d| d.severity() == sev).count()
    }

    /// The most severe level present, if any fired.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diags.iter().map(|d| d.severity()).max()
    }

    /// Number of diagnostics whose code is in `deny`.
    pub fn denied(&self, deny: &[LintCode]) -> usize {
        self.diags.iter().filter(|d| deny.contains(&d.code)).count()
    }

    /// Per-code tally over [`LintCode::ALL`], indexed by [`LintCode::index`].
    pub fn tally(&self) -> [u64; NUM_CODES] {
        let mut t = [0u64; NUM_CODES];
        for d in &self.diags {
            t[d.code.index()] += 1;
        }
        t
    }

    /// The report as a [`QualityLintSummary`] for `ModuleMetrics`.
    pub fn quality_summary(&self) -> QualityLintSummary {
        let t = self.tally();
        QualityLintSummary {
            errors: self.count_severity(Severity::Error) as u64,
            warnings: self.count_severity(Severity::Warning) as u64,
            notes: self.count_severity(Severity::Note) as u64,
            by_code: LintCode::ALL
                .into_iter()
                .filter(|c| t[c.index()] > 0)
                .map(|c| (c.code().to_string(), t[c.index()]))
                .collect(),
        }
    }

    /// One line per diagnostic plus a summary trailer.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diags {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        if self.is_empty() {
            out.push_str("no diagnostics\n");
        } else {
            out.push_str(&format!(
                "{} diagnostics: {} errors, {} warnings, {} notes\n",
                self.len(),
                self.count_severity(Severity::Error),
                self.count_severity(Severity::Warning),
                self.count_severity(Severity::Note),
            ));
        }
        out
    }

    /// One JSON object per line (JSONL), byte-deterministic.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for d in &self.diags {
            let mut w = JsonWriter::new();
            d.write_json(&mut w);
            out.push_str(&w.finish());
            out.push('\n');
        }
        out
    }

    /// Sorts into canonical order. Per-function lint passes emit in block
    /// order already; this is for reports assembled from several passes.
    pub fn sort(&mut self) {
        self.diags.sort_by(|a, b| {
            let key = |d: &Diagnostic| {
                (
                    d.func.clone(),
                    d.block.map_or(usize::MAX, BlockId::index),
                    d.inst.unwrap_or(usize::MAX),
                    d.code.index(),
                    d.message.clone(),
                )
            };
            key(a).cmp(&key(b))
        });
    }
}

/// Shared helper for the lint passes: emit into a report with the span's
/// source line resolved from an optional [`lsra_ir::FunctionLines`] map.
pub(crate) struct Emitter<'a> {
    pub func: &'a str,
    pub lines: Option<&'a lsra_ir::FunctionLines>,
    pub diags: Vec<Diagnostic>,
}

impl Emitter<'_> {
    pub(crate) fn emit(
        &mut self,
        code: LintCode,
        block: Option<BlockId>,
        inst: Option<usize>,
        message: String,
    ) {
        let line = match (self.lines, block, inst) {
            (Some(map), Some(b), Some(i)) => map.line_of(b, i),
            _ => None,
        };
        self.diags.push(Diagnostic {
            code,
            func: self.func.to_string(),
            block,
            inst,
            line,
            message,
        });
    }
}

/// True when the CFG analyses can run on `f`: its own rule walk finds no
/// malformed block and no jump or branch to a missing block.
pub(crate) fn cfg_is_sound(f: &Function) -> bool {
    f.for_each_finding(|x| match x.kind {
        lsra_ir::FindingKind::Operand => ControlFlow::Continue(()),
        _ => ControlFlow::Break(()),
    })
    .is_continue()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The code tables cannot drift: `ALL` is in index order, codes and
    /// names are unique, and `parse` round-trips both spellings.
    #[test]
    fn code_tables_are_consistent() {
        for (i, c) in LintCode::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(LintCode::parse(c.code()), Some(c));
            assert_eq!(LintCode::parse(c.name()), Some(c));
            assert!(!c.description().is_empty());
            assert_eq!(c.is_quality(), (7..12).contains(&i), "{c}");
            assert_eq!(c.is_native(), i >= 12, "{c}");
            if c.is_native() {
                assert_eq!(c.severity(), Severity::Error, "{c}");
            }
        }
        let mut codes: Vec<_> = CODES.to_vec();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), NUM_CODES, "duplicate code strings");
        let mut names: Vec<_> = NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NUM_CODES, "duplicate names");
        assert_eq!(LintCode::parse("L999"), None);
    }

    #[test]
    fn severity_orders() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn report_renders_and_counts() {
        let mut r = LintReport::new();
        r.diags.push(Diagnostic {
            code: LintCode::UseBeforeDef,
            func: "f".into(),
            block: Some(BlockId(0)),
            inst: Some(2),
            line: Some(7),
            message: "t0 read before defined".into(),
        });
        r.diags.push(Diagnostic {
            code: LintCode::IdentityMove,
            func: "f".into(),
            block: Some(BlockId(1)),
            inst: None,
            line: None,
            message: "r1 = r1".into(),
        });
        assert_eq!(r.len(), 2);
        assert_eq!(r.count(LintCode::UseBeforeDef), 1);
        assert_eq!(r.max_severity(), Some(Severity::Error));
        assert_eq!(r.denied(&[LintCode::IdentityMove]), 1);
        assert_eq!(r.denied(&[LintCode::DeadSpillStore]), 0);
        let human = r.render_human();
        assert!(human.contains("L001 error [use-before-def]: in f, b0 inst 2 (line 7)"), "{human}");
        assert!(human.contains("2 diagnostics: 1 errors, 0 warnings, 1 notes"), "{human}");
        let jsonl = r.render_jsonl();
        for line in jsonl.lines() {
            lsra_trace::json::validate(line).unwrap();
        }
        assert!(jsonl.contains(r#""code": "L001""#), "{jsonl}");
        assert!(jsonl.contains(r#""line": 7"#), "{jsonl}");
        assert!(jsonl.contains(r#""inst": null"#), "{jsonl}");
        let summary = r.quality_summary();
        assert_eq!(summary.errors, 1);
        assert_eq!(summary.by_code, vec![("L001".to_string(), 1), ("Q103".to_string(), 1)]);
    }

    #[test]
    fn sort_is_canonical() {
        let d = |code: LintCode, block: u32, inst: usize| Diagnostic {
            code,
            func: "f".into(),
            block: Some(BlockId(block)),
            inst: Some(inst),
            line: None,
            message: String::new(),
        };
        let mut r = LintReport::new();
        r.diags.push(d(LintCode::IdentityMove, 1, 0));
        r.diags.push(d(LintCode::UseBeforeDef, 0, 3));
        r.diags.push(d(LintCode::ClassMismatch, 0, 3));
        r.sort();
        assert_eq!(
            r.diags.iter().map(|x| x.code).collect::<Vec<_>>(),
            vec![LintCode::UseBeforeDef, LintCode::ClassMismatch, LintCode::IdentityMove]
        );
    }
}
