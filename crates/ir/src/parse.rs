//! A reader for the IR's textual form, the exact format the `Display`
//! implementations print — so modules and functions round-trip through
//! text (test inputs, golden files, the CLI and the allocation service).
//!
//! One walk reads a module's lines: a function takes them from the module
//! walk up to its closing `}`, so every line number is a file line. Each
//! instruction's operands are read through one cursor, so a short
//! instruction is a [`ParseError`] at its line, never a panic; names are
//! looked up in the printer's own tables ([`OpCode::ALL`] and its kin).
//! Besides syntax the reader refuses a block label past the next new block,
//! a register number past `u8`, an operand past an instruction's form, an
//! operation with more sources than [`Srcs::CAPACITY`], a second `module`
//! header and a header parameter that is not a declared temporary of its
//! class. The IR rules are
//! [`Module::for_each_finding`]'s, left out by [`parse_module_syntax`].

use std::fmt;
use std::ops::ControlFlow;

use crate::block::BlockId;
use crate::function::{Function, SlotId, ValidateError};
use crate::inst::{Callee, Cond, ExtFn, FuncId, Ins, Inst, OpCode, SpillTag, Srcs};
use crate::module::Module;
use crate::reg::{PhysReg, Reg, RegClass, Temp};
use crate::rules::arity_finding;

/// A syntax or consistency error with its 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Line where the problem was found.
    pub line: usize,
    /// Description.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Source lines recorded while parsing one function: where the header sits
/// and, per block, the 1-based line of every instruction. Line numbers are
/// those of the text handed to the parser: file lines for a function read
/// by [`parse_module_with_lines`].
///
/// This is what lets diagnostics (validation errors, lints) point at the
/// offending *source line* instead of just a `(block, inst)` pair.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FunctionLines {
    /// Line of the `func @name(...) {` header.
    pub header: usize,
    /// `insts[b][i]` is the line of block `b`'s `i`-th instruction.
    pub insts: Vec<Vec<usize>>,
}

impl FunctionLines {
    /// The source line of `block`'s `inst`-th instruction, if recorded.
    pub fn line_of(&self, block: BlockId, inst: usize) -> Option<usize> {
        self.insts.get(block.index()).and_then(|b| b.get(inst)).copied()
    }
}

/// Per-function [`FunctionLines`] for a parsed module, indexed like
/// `Module::funcs`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ModuleLines {
    /// One entry per function, in `Module::funcs` order.
    pub funcs: Vec<FunctionLines>,
}

impl ModuleLines {
    /// The source line of instruction `inst` in `block` of function `func`.
    pub fn line_of(&self, func: usize, block: BlockId, inst: usize) -> Option<usize> {
        self.funcs.get(func).and_then(|f| f.line_of(block, inst))
    }
}

type Result<T> = std::result::Result<T, ParseError>;

fn bad(line: usize, msg: impl Into<String>) -> ParseError {
    ParseError { line, msg: msg.into() }
}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T> {
    Err(bad(line, msg))
}

/// `text`'s lines, numbered from 1.
fn numbered(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines().enumerate().map(|(i, l)| (i + 1, l))
}

/// The member of `all` that the printer writes as `s`.
fn by_name<T: Copy>(all: &[T], name: fn(T) -> &'static str, s: &str) -> Option<T> {
    all.iter().copied().find(|&x| name(x) == s)
}

fn parse_class(s: &str, line: usize) -> Result<RegClass> {
    let class = RegClass::ALL.into_iter().find(|c| s.strip_prefix(c.mnemonic()) == Some(""));
    class.ok_or_else(|| bad(line, format!("unknown register class `{s}`")))
}

/// `tN`, `rN` or `fN`; a physical register's number must fit its `u8`.
fn parse_reg(s: &str, line: usize) -> Result<Reg> {
    let n = s.get(1..).unwrap_or("");
    let reg = match s.get(..1) {
        Some("t") => n.parse().map(|i| Reg::Temp(Temp(i))).ok(),
        Some("r") => n.parse().map(|i| Reg::Phys(PhysReg::int(i))).ok(),
        Some("f") => n.parse().map(|i| Reg::Phys(PhysReg::float(i))).ok(),
        _ => None,
    };
    reg.ok_or_else(|| bad(line, format!("bad register `{s}`")))
}

fn parse_phys(s: &str, line: usize) -> Result<PhysReg> {
    let p = parse_reg(s, line)?.as_phys();
    p.ok_or_else(|| bad(line, format!("expected physical register, got `{s}`")))
}

fn parse_temp(s: &str, line: usize) -> Result<Temp> {
    let t = parse_reg(s, line)?.as_temp();
    t.ok_or_else(|| bad(line, format!("expected temporary, got `{s}`")))
}

/// A `tN:c` declaration, in the header (`what` = "param") or a `temps` line.
fn parse_decl(s: &str, line: usize, what: &str) -> Result<(Temp, RegClass)> {
    let (t, class) = s.split_once(':').ok_or_else(|| bad(line, format!("bad {what} `{s}`")))?;
    Ok((parse_temp(t, line)?, parse_class(class, line)?))
}

fn parse_block(s: &str, line: usize) -> Result<BlockId> {
    s.strip_prefix('b')
        .and_then(|n| n.parse().ok())
        .map(BlockId)
        .ok_or_else(|| bad(line, format!("bad block label `{s}`")))
}

/// `[base+offset]` (offset may itself be negative: `[t4+-48]`).
fn parse_addr(s: &str, line: usize) -> Result<(Reg, i32)> {
    let (base, off) = s
        .strip_prefix('[')
        .and_then(|x| x.strip_suffix(']'))
        .and_then(|x| x.split_once('+'))
        .ok_or_else(|| bad(line, format!("bad address `{s}`")))?;
    let offset: i32 = off.parse().map_err(|_| bad(line, format!("bad offset `{off}`")))?;
    Ok((parse_reg(base, line)?, offset))
}

/// Splits a trailing `; Tag` comment off an instruction line; a comment
/// that names no spill tag is just a comment.
fn split_tag(line: &str) -> (&str, SpillTag) {
    match line.split_once(';') {
        Some((body, comment)) => {
            let tag = by_name(&SpillTag::SPILL_KINDS, SpillTag::name, comment.trim());
            (body.trim_end(), tag.unwrap_or(SpillTag::None))
        }
        None => (line, SpillTag::None),
    }
}

/// One instruction's tokens (split at spaces and commas), read left to
/// right. Each required read names what it expects, so a short
/// instruction is a [`ParseError`] at its line.
struct Cursor<'a> {
    body: &'a str,
    line: usize,
    tokens: std::str::Split<'a, [char; 2]>,
}

impl<'a> Cursor<'a> {
    fn new(body: &'a str, line: usize) -> Self {
        Cursor { body, line, tokens: body.split([' ', ',']) }
    }

    /// The next token, if there is one.
    fn opt(&mut self) -> Option<&'a str> {
        self.tokens.by_ref().find(|t| !t.is_empty())
    }

    /// The next token, which must be there; `what` names it in the error.
    fn next(&mut self, what: &str) -> Result<&'a str> {
        let (line, body) = (self.line, self.body);
        self.opt().ok_or_else(|| bad(line, format!("missing {what} in `{body}`")))
    }

    fn reg(&mut self, what: &str) -> Result<Reg> {
        parse_reg(self.next(what)?, self.line)
    }

    fn block(&mut self, what: &str) -> Result<BlockId> {
        parse_block(self.next(what)?, self.line)
    }

    /// The number of a `(slot N)` whose first token was just read.
    fn slot(&mut self) -> Result<&'a str> {
        Ok(self.next("slot number")?.trim_end_matches(')'))
    }

    /// An error for `token`, left over past the instruction's form.
    fn unexpected(&self, token: &str) -> ParseError {
        bad(self.line, format!("unexpected `{token}` in `{}`", self.body))
    }

    /// The end of the instruction: a token left over is an error.
    fn end(&mut self) -> Result<()> {
        match self.opt() {
            Some(extra) => Err(self.unexpected(extra)),
            None => Ok(()),
        }
    }

    /// An operation's sources: every remaining token, as a register. A
    /// short list is left to the rule walk; one longer than [`Srcs`] holds
    /// is refused here, worded as the rule walk words a wrong count.
    fn srcs(&mut self, op: OpCode) -> Result<Srcs> {
        let mut srcs = Srcs::new();
        let mut got = 0;
        while let Some(t) = self.opt() {
            // A full list keeps counting, so the error names every source.
            let _ = srcs.try_push(parse_reg(t, self.line)?);
            got += 1;
        }
        match arity_finding(op, got) {
            Some(msg) if got > Srcs::CAPACITY => err(self.line, msg),
            _ => Ok(srcs),
        }
    }

    /// Every remaining token, each read by `parse`.
    fn rest<R>(&mut self, parse: fn(&str, usize) -> Result<R>) -> Result<Vec<R>> {
        let line = self.line;
        std::iter::from_fn(|| self.opt()).map(|t| parse(t, line)).collect()
    }
}

/// One function being read: the function so far, its line map, the block
/// instructions go to, and the header's parameters (checked against the
/// `temps` table at the closing `}`).
struct FuncParser {
    func: Function,
    lines: FunctionLines,
    current: Option<BlockId>,
    params: Vec<(Temp, RegClass)>,
}

impl FuncParser {
    /// Parses `func @name(...) {`.
    fn start(header: &str, line: usize) -> Result<FuncParser> {
        let rest =
            header.strip_prefix("func @").ok_or_else(|| bad(line, "expected `func @...`"))?;
        let (name, rest) = rest.split_once('(').ok_or_else(|| bad(line, "missing `(`"))?;
        let (params_str, _) = rest.split_once(')').ok_or_else(|| bad(line, "missing `)`"))?;
        let params = params_str.split(',').map(str::trim).filter(|p| !p.is_empty());
        let params = params.map(|p| parse_decl(p, line, "param")).collect::<Result<_>>()?;
        Ok(FuncParser {
            func: Function::new(name),
            lines: FunctionLines { header: line, insts: Vec::new() },
            current: None,
            params,
        })
    }

    fn temps_line(&mut self, rest: &str, line: usize) -> Result<()> {
        for decl in rest.split_whitespace() {
            let (t, class) = parse_decl(decl, line, "temp")?;
            if t.index() != self.func.num_temps() {
                return err(line, format!("temp {t} declared out of order"));
            }
            self.func.new_temp(class, None);
        }
        Ok(())
    }

    /// `bN:` reopens block N or opens the next new block; a label past that
    /// could only open empty blocks.
    fn label(&mut self, label: &str, line: usize) -> Result<()> {
        let id = parse_block(label, line)?;
        let next = self.func.num_blocks();
        if id.index() > next {
            return err(line, format!("block label `{label}` skips b{next}"));
        }
        if id.index() == next {
            self.func.add_block();
            self.lines.insts.push(Vec::new());
        }
        self.current = Some(id);
        Ok(())
    }

    fn note_slot(&mut self, t: Temp, slot_str: Option<&str>, line: usize) -> Result<()> {
        if let Some(s) = slot_str {
            let id = s.parse().ok().filter(|&id| id < u32::MAX);
            let id: u32 = id.ok_or_else(|| bad(line, format!("bad slot `{s}`")))?;
            if let Some(slot) = self.func.spill_slots.get_mut(t.index()) {
                *slot = Some(SlotId(id));
                self.func.num_slots = self.func.num_slots.max(id + 1);
            }
        } else if t.index() < self.func.num_temps() {
            self.func.slot_for(t);
        }
        // An unknown temp is left to the rule walk.
        Ok(())
    }

    fn inst_line(&mut self, body: &str, tag: SpillTag, line: usize) -> Result<()> {
        let Some(current) = self.current else {
            return err(line, "instruction outside a block");
        };
        let mut cur = Cursor::new(body, line);
        let inst = self.parse_inst(&mut cur)?;
        cur.end()?;
        self.func.block_mut(current).insts.push(Ins::tagged(inst, tag));
        self.lines.insts[current.index()].push(line);
        Ok(())
    }

    /// One instruction's operands; the caller refuses any left over.
    fn parse_inst(&mut self, cur: &mut Cursor<'_>) -> Result<Inst> {
        let line = cur.line;
        let Some(head) = cur.opt() else { return err(line, "empty instruction") };
        Ok(match head {
            // st [base+off], src
            "st" => {
                let (base, offset) = parse_addr(cur.next("address")?, line)?;
                Inst::Store { src: cur.reg("source")?, base, offset }
            }
            // spill tY (slot N), rX   |   spill tY, rX
            "spill" => {
                let temp = parse_temp(cur.next("temporary")?, line)?;
                let (slot, src) = match cur.next("source")? {
                    open if open.starts_with("(slot") => (Some(cur.slot()?), cur.next("source")?),
                    src => (None, src),
                };
                self.note_slot(temp, slot, line)?;
                Inst::SpillStore { src: parse_reg(src, line)?, temp }
            }
            // call @3 (r1, r2) -> r0  |  call !getchar ()
            "call" => {
                let name = cur.next("callee")?;
                let callee = match (name.strip_prefix('@'), name.strip_prefix('!')) {
                    (Some(id), _) => id.parse().ok().map(|id| Callee::Func(FuncId(id))),
                    (_, Some(ext)) => by_name(&ExtFn::ALL, ExtFn::name, ext).map(Callee::Ext),
                    _ => None,
                };
                let callee = callee.ok_or_else(|| bad(line, format!("bad callee `{name}`")))?;
                let (mut arg_regs, mut ret_regs) = (Vec::new(), Vec::new());
                let mut regs = &mut arg_regs;
                while let Some(tok) = cur.opt() {
                    match tok.trim_matches(['(', ')']) {
                        "" => {}
                        "->" => regs = &mut ret_regs,
                        r => regs.push(parse_phys(r, line)?),
                    }
                }
                Inst::Call { callee, arg_regs, ret_regs }
            }
            "jmp" => Inst::Jump { target: cur.block("target")? },
            "ret" => Inst::Ret { ret_regs: cur.rest(parse_phys)? },
            // beq src, then, else
            _ => {
                let cond = head.strip_prefix('b');
                let Some(cond) = cond.and_then(|c| by_name(&Cond::ALL, Cond::mnemonic, c)) else {
                    return self.assignment(head, cur);
                };
                Inst::Branch {
                    cond,
                    src: cur.reg("tested register")?,
                    then_tgt: cur.block("then-target")?,
                    else_tgt: cur.block("else-target")?,
                }
            }
        })
    }

    /// `<dst> = ...`, whose first token `dst` was just read.
    fn assignment(&mut self, dst: &str, cur: &mut Cursor<'_>) -> Result<Inst> {
        let line = cur.line;
        let (Some("="), Some(op)) = (cur.opt(), cur.opt()) else {
            return err(line, format!("unrecognised instruction `{}`", cur.body));
        };
        let dst = parse_reg(dst, line)?;
        Ok(match op {
            "ld" => {
                let (base, offset) = parse_addr(cur.next("address")?, line)?;
                Inst::Load { dst, base, offset }
            }
            // dst = reload tY (slot N)   |   dst = reload tY
            "reload" => {
                let temp = parse_temp(cur.next("temporary")?, line)?;
                let slot = match cur.opt() {
                    Some(open) if open.starts_with("(slot") => Some(cur.slot()?),
                    Some(extra) => return Err(cur.unexpected(extra)),
                    None => None,
                };
                self.note_slot(temp, slot, line)?;
                Inst::SpillLoad { dst, temp }
            }
            _ => match by_name(&OpCode::ALL, OpCode::mnemonic, op) {
                Some(op) => Inst::Op { op, dst, srcs: cur.srcs(op)? },
                None if cur.opt().is_some() => {
                    return err(line, format!("unrecognised operation `{op}`"));
                }
                // A move or an immediate.
                None => match (op.parse::<i64>(), op.parse::<f64>()) {
                    (Ok(imm), _) => Inst::MovI { dst, imm },
                    (_, Ok(imm)) => Inst::MovF { dst, imm },
                    _ => Inst::Mov { dst, src: parse_reg(op, line)? },
                },
            },
        })
    }

    /// The closing `}`: each header parameter must be a declared temporary
    /// of the class the header gives it.
    fn finish(mut self) -> Result<(Function, FunctionLines)> {
        for (t, class) in self.params {
            let declared = self.func.temps.get(t.index()).map(|info| info.class);
            if declared != Some(class) {
                let why = match declared {
                    Some(c) => format!("declared {t}:{c}"),
                    None => "not a declared temporary".into(),
                };
                return err(self.lines.header, format!("parameter {t}:{class} is {why}"));
            }
            self.func.params.push(t);
        }
        Ok((self.func, self.lines))
    }
}

/// Reads one function from its header `(line, text)` up to and including
/// the closing `}`, taking lines from `lines` — the iterator the caller
/// found the header in, so line numbers are the caller's. The IR rules are
/// left to the caller.
fn function_syntax<'a>(
    (header_line, header): (usize, &str),
    lines: &mut impl Iterator<Item = (usize, &'a str)>,
) -> Result<(Function, FunctionLines)> {
    let mut p = FuncParser::start(header, header_line)?;
    let mut last = header_line;
    for (line, raw) in lines {
        last = line;
        let (body, tag) = split_tag(raw);
        let body = body.trim();
        if body == "}" {
            return p.finish();
        } else if let Some(rest) = body.strip_prefix("temps ") {
            p.temps_line(rest, line)?;
        } else if let Some(label) = body.strip_suffix(':') {
            p.label(label, line)?;
        } else if !body.is_empty() {
            p.inst_line(body, tag, line)?;
        }
    }
    err(last, "missing closing `}`")
}

/// Parses one function in the printer's format.
///
/// # Examples
///
/// ```
/// let text = "func @double(t0:i) {\n  temps t0:i t1:i\nb0:\n  t1 = add t0, t0\n  r0 = t1\n  ret r0\n}\n";
/// let f = lsra_ir::parse_function(text)?;
/// assert_eq!(f.name, "double");
/// assert_eq!(f.num_temps(), 2);
/// # Ok::<(), lsra_ir::ParseError>(())
/// ```
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line; additionally the
/// result is validated structurally.
pub fn parse_function(text: &str) -> Result<Function> {
    parse_function_with_lines(text).map(|(f, _)| f)
}

/// [`parse_function`] plus the [`FunctionLines`] source map; validation
/// errors point at the offending instruction's line, or else at the
/// function header.
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line.
pub fn parse_function_with_lines(text: &str) -> Result<(Function, FunctionLines)> {
    let mut lines = numbered(text);
    let header = lines
        .by_ref()
        .map(|(n, l)| (n, l.trim()))
        .find(|(_, l)| !l.is_empty() && !l.starts_with(';'))
        .ok_or_else(|| bad(1, "empty input"))?;
    let (f, map) = function_syntax(header, &mut lines)?;
    f.validate().map_err(|e| located(e, &map))?;
    Ok((f, map))
}

/// A [`ValidateError`] as a [`ParseError`] at the offending instruction's
/// line, or else at the function header.
fn located(e: ValidateError, map: &FunctionLines) -> ParseError {
    bad(map.line_of(e.block, e.inst).unwrap_or(map.header), e.to_string())
}

/// Parses a whole module in the printer's format.
///
/// # Errors
///
/// Returns a [`ParseError`]; the module is validated before returning.
pub fn parse_module(text: &str) -> Result<Module> {
    parse_module_with_lines(text).map(|(m, _)| m)
}

/// [`parse_module`] plus the per-function [`ModuleLines`] source map. All
/// line numbers (including those in errors raised while parsing a function
/// body) are file lines.
///
/// # Errors
///
/// Returns a [`ParseError`]; the module is validated once before
/// returning, and validation errors are mapped back to the offending
/// instruction's line (or its function's header).
pub fn parse_module_with_lines(text: &str) -> Result<(Module, ModuleLines)> {
    let (m, lines) = parse_module_syntax(text)?;
    validate_with_lines(&m, &lines)?;
    Ok((m, lines))
}

/// [`Module::validate`] with the error at its source line: the offending
/// instruction's, or else its function header's (line 0 for a missing
/// entry, which no line holds).
///
/// # Errors
///
/// Returns the first finding as a [`ParseError`].
pub fn validate_with_lines(m: &Module, lines: &ModuleLines) -> Result<()> {
    let walk = m.for_each_finding(|func, finding| ControlFlow::Break((func, finding)));
    let Some((func, finding)) = walk.break_value() else { return Ok(()) };
    let e = ValidateError::from(finding);
    Err(match func.and_then(|i| lines.funcs.get(i)) {
        Some(map) => located(e, map),
        None => bad(0, e.to_string()),
    })
}

/// [`parse_module_with_lines`] without the IR rules: the syntax only, so a
/// module with broken rules reaches the input lints, which report every
/// finding (see [`Module::for_each_finding`]).
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line.
pub fn parse_module_syntax(text: &str) -> Result<(Module, ModuleLines)> {
    let mut module: Option<Module> = None;
    let mut mlines = ModuleLines::default();
    let mut lines = numbered(text);
    while let Some((lineno, raw)) = lines.next() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with(';') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("module ") {
            if module.is_some() {
                return err(lineno, "a second `module` header");
            }
            let (name, tail) =
                rest.split_once(" (").ok_or_else(|| bad(lineno, "bad module header"))?;
            let words: usize = tail
                .strip_suffix(" words data)")
                .and_then(|w| w.parse().ok())
                .ok_or_else(|| bad(lineno, "bad module header"))?;
            module = Some(Module::new(name, words));
        } else if let Some(rest) = line.strip_prefix("entry @") {
            let id: u32 = rest.parse().map_err(|_| bad(lineno, "bad entry id"))?;
            module.as_mut().ok_or_else(|| bad(lineno, "entry before module"))?.entry = FuncId(id);
        } else if let Some(rest) = line.strip_prefix("data") {
            let m = module.as_mut().ok_or_else(|| bad(lineno, "data before module"))?;
            for w in rest.split_whitespace() {
                m.data.push(w.parse().map_err(|_| bad(lineno, format!("bad data word `{w}`")))?);
            }
            if m.data.len() > m.memory_words {
                return err(lineno, "data longer than declared memory");
            }
        } else if line.starts_with("func @") {
            let m = module.as_mut().ok_or_else(|| bad(lineno, "function before module header"))?;
            let (f, fl) = function_syntax((lineno, line), &mut lines)?;
            m.add_func(f);
            mlines.funcs.push(fl);
        } else {
            return err(lineno, format!("unexpected line `{line}`"));
        }
    }
    let m = module.ok_or_else(|| bad(1, "no module header"))?;
    Ok((m, mlines))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{FunctionBuilder, ModuleBuilder};
    use crate::machine::MachineSpec;

    fn sample_function() -> Function {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "demo", &[RegClass::Int, RegClass::Float]);
        let x = b.param(0);
        let y = b.param(1);
        let z = b.int_temp("z");
        b.movi(z, -7);
        let w = b.float_temp("w");
        b.movf(w, 2.5);
        let s = b.float_temp("s");
        b.op2(OpCode::FMul, s, y, w);
        let si = b.int_temp("si");
        b.op1(OpCode::FloatToInt, si, s);
        let out = b.int_temp("out");
        b.add(out, x, si);
        b.add(out, out, z);
        b.store(out, z, 3);
        let l = b.int_temp("l");
        b.load(l, z, 3);
        let exit = b.block();
        b.branch(Cond::Ge, l, exit, exit);
        b.switch_to(exit);
        b.call_ext(ExtFn::PutInt, &[l.into()], None);
        b.ret(Some(l.into()));
        b.finish()
    }

    #[test]
    fn function_round_trips() {
        let f = sample_function();
        let text = f.to_string();
        let parsed = parse_function(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(parsed.to_string(), text);
        assert_eq!(parsed.num_temps(), f.num_temps());
        assert_eq!(parsed.num_blocks(), f.num_blocks());
    }

    #[test]
    fn module_round_trips() {
        let mut mb = ModuleBuilder::new("m", 32);
        mb.reserve(4, &[1, -2, 3, 4]);
        let id = mb.add(sample_function());
        mb.entry(id);
        let m = mb.finish();
        let text = m.to_string();
        let parsed = parse_module(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(parsed.to_string(), text);
        assert_eq!(parsed.data, m.data);
        assert_eq!(parsed.entry, m.entry);
    }

    #[test]
    fn spill_instructions_round_trip() {
        let mut f = Function::new("sp");
        let t = f.new_temp(RegClass::Int, None);
        f.slot_for(t);
        let b0 = f.add_block();
        let r1: Reg = PhysReg::int(1).into();
        let r2: Reg = PhysReg::int(2).into();
        f.block_mut(b0).insts.extend([
            Ins::new(Inst::MovI { dst: r1, imm: 5 }),
            Ins::tagged(Inst::SpillStore { src: r1, temp: t }, SpillTag::EvictStore),
            Ins::tagged(Inst::SpillLoad { dst: r2, temp: t }, SpillTag::ResolveLoad),
            Ins::new(Inst::Ret { ret_regs: vec![PhysReg::int(0)] }),
        ]);
        f.allocated = true;
        let text = f.to_string();
        let parsed = parse_function(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        // allocated is metadata the text doesn't carry; compare bodies.
        assert_eq!(parsed.blocks, f.blocks);
        assert_eq!(parsed.spill_slots, f.spill_slots);
    }

    #[test]
    fn negative_offsets_parse() {
        let text = "func @n() {\n  temps t0:i t1:i\nb0:\n  t0 = 4\n  t1 = ld [t0+-2]\n  ret\n}\n";
        let f = parse_function(text).unwrap();
        assert!(matches!(f.block(BlockId(0)).insts[1].inst, Inst::Load { offset: -2, .. }));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = "func @bad() {\nb0:\n  t0 = frobnicate t1\n  ret\n}\n";
        let e = parse_function(text).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.msg.contains("frobnicate"), "{e}");
    }

    #[test]
    fn rejects_missing_brace() {
        let text = "func @open() {\nb0:\n  ret\n";
        assert!(parse_function(text).is_err());
    }

    #[test]
    fn rejects_invalid_parsed_function() {
        // Block without terminator: validation fires at the closing brace,
        // but the error points at the offending instruction's line.
        let text = "func @inv() {\n  temps t0:i\nb0:\n  t0 = 3\n}\n";
        let e = parse_function(text).unwrap_err();
        assert_eq!(e.line, 4, "{e}");
        assert!(e.msg.contains("malformed block"), "{e}");
    }

    #[test]
    fn validation_errors_point_at_the_offending_instruction() {
        // t1 is a float; the add on line 5 is the class mismatch.
        let text = "func @cls() {\n  temps t0:i t1:f\nb0:\n  t0 = 1\n  t1 = add t0, t0\n  ret\n}\n";
        let e = parse_function(text).unwrap_err();
        assert_eq!(e.line, 5, "{e}");
    }

    #[test]
    fn rule_breaks_parse_as_syntax_and_fail_validation_at_their_line() {
        // A reload of an undeclared temp (which once panicked the parser)
        // and a short `add` are rule findings, not syntax errors.
        let text = "module m (0 words data)\nentry @0\nfunc @f() {\n  temps t0:i\nb0:\n  r0 = reload t9\n  t0 = add t0\n  ret\n}\n";
        let (m, lines) = parse_module_syntax(text).unwrap();
        let e = validate_with_lines(&m, &lines).unwrap_err();
        assert_eq!(e.to_string(), "line 6: in f, b0 inst 0: unknown temp t9");
        assert_eq!(parse_module(text).unwrap_err(), e);
        let mut found = Vec::new();
        let _ = m.funcs[0].for_each_finding(|x| {
            found.push((x.inst, x.msg));
            ControlFlow::<()>::Continue(())
        });
        let short = "add expects 2 sources, got 1".to_string();
        assert_eq!(found, [(Some(0), "unknown temp t9".to_string()), (Some(1), short)]);
    }

    #[test]
    fn function_lines_map_every_instruction() {
        let f = sample_function();
        let text = f.to_string();
        let (parsed, lines) = parse_function_with_lines(&text).unwrap();
        assert_eq!(lines.header, 1);
        let num_lines = text.lines().count();
        let mut mapped = 0;
        for b in parsed.block_ids() {
            let mut prev = 0;
            for i in 0..parsed.block(b).insts.len() {
                let l = lines.line_of(b, i).unwrap_or_else(|| panic!("no line for {b} inst {i}"));
                assert!(l > prev && l <= num_lines, "{b} inst {i} -> line {l}");
                prev = l;
                mapped += 1;
            }
        }
        assert_eq!(mapped, parsed.num_insts());
        assert_eq!(lines.line_of(BlockId(99), 0), None);
    }

    #[test]
    fn module_errors_are_file_relative() {
        // The bad opcode sits on file line 8, inside the second function.
        let text = "module m (0 words data)\nentry @0\nfunc @a() {\nb0:\n  ret\n}\nfunc @b() {\nb0:\n  t0 = frobnicate t1\n  ret\n}\n";
        let e = parse_module(text).unwrap_err();
        assert_eq!(e.line, 9, "{e}");
        assert!(e.msg.contains("frobnicate"), "{e}");
    }

    #[test]
    fn module_validation_errors_are_file_relative() {
        // Parses fine; validation rejects the float move into an int temp on
        // line 10 of the file (line 4 of the second function).
        let text = "module m (0 words data)\nentry @0\nfunc @a() {\nb0:\n  ret\n}\nfunc @b() {\n  temps t0:i\nb0:\n  t0 = 2.5\n  ret\n}\n";
        let e = parse_module(text).unwrap_err();
        assert_eq!(e.line, 10, "{e}");
    }

    /// A one-function module whose single block holds `body` (line 5 on).
    fn one_block(body: &str) -> String {
        format!("module m (0 words data)\nentry @0\nfunc @main() {{\n  temps t0:i\nb0:\n{body}}}\n")
    }

    /// `text` fails at `line` with a message containing `what`, through both
    /// module readers.
    fn refused_at(text: &str, line: usize, what: &str) {
        for e in [parse_module(text).unwrap_err(), parse_module_syntax(text).unwrap_err()] {
            assert_eq!(e.line, line, "{e}\n{text}");
            assert!(e.msg.contains(what), "{e}\n{text}");
        }
    }

    #[test]
    fn block_labels_open_blocks_in_order() {
        for label in ["b1000000", "b4000000000"] {
            let text = one_block(&format!("  ret\n{label}:\n  ret\n"));
            refused_at(&text, 7, &format!("block label `{label}` skips b1"));
        }
        // Reopening an open block and opening the next new one still parse.
        let text = one_block("  jmp b1\nb1:\n  ret\nb0:\n");
        let m = parse_module(&text).unwrap();
        assert_eq!(m.funcs[0].num_blocks(), 2);
    }

    #[test]
    fn register_numbers_must_fit() {
        refused_at(&one_block("  t0 = r300\n  ret\n"), 6, "bad register `r300`");
        refused_at(&one_block("  t0 = f256\n  ret\n"), 6, "bad register `f256`");
        let m = parse_module(&one_block("  t0 = r255\n  ret\n")).unwrap();
        let Inst::Mov { src, .. } = m.funcs[0].blocks[0].insts[0].inst else { panic!() };
        assert_eq!(src, Reg::Phys(PhysReg::int(255)));
    }

    #[test]
    fn truncated_instructions_are_errors_at_their_line() {
        for (inst, what) in [
            ("st", "missing address in `st`"),
            ("jmp", "missing target in `jmp`"),
            ("spill t0", "missing source in `spill t0`"),
            ("t0 = ld", "missing address in `t0 = ld`"),
            ("bne t0, b1", "missing else-target in `bne t0, b1`"),
            ("spill t0 (slot", "missing slot number"),
            ("t0 = reload t0 (slot", "missing slot number"),
            ("call", "missing callee"),
        ] {
            refused_at(&one_block(&format!("  {inst}\n")), 6, what);
        }
    }

    #[test]
    fn operands_past_an_instructions_form_are_refused() {
        for (inst, extra) in [
            ("st [t0+1], t0, t0, r7", "t0"),
            ("jmp b1 b0 junk", "b0"),
            ("spill t0 (slot 0), r7, r1", "r1"),
            ("spill t0, r7 junk", "junk"),
            ("beq t0, b0, b0, b1", "b1"),
            ("t0 = ld [t0+1] junk", "junk"),
            ("t0 = reload t0 junk", "junk"),
            ("t0 = reload t0 (slot 0) junk", "junk"),
        ] {
            refused_at(
                &one_block(&format!("  {inst}\n")),
                6,
                &format!("unexpected `{extra}` in `{inst}`"),
            );
        }
    }

    #[test]
    fn sources_past_the_inline_capacity_are_refused_at_their_line() {
        for (inst, what) in [
            ("t0 = add t0, t0, t0", "add expects 2 sources, got 3"),
            ("t0 = add t0, t0, t0, t0", "add expects 2 sources, got 4"),
            ("t0 = neg t0, t0, t0", "neg expects 1 sources, got 3"),
        ] {
            let text = one_block(&format!("  {inst}\n  ret\n"));
            refused_at(&text, 6, what);
            assert_eq!(parse_module(&text).unwrap_err().to_string(), format!("line 6: {what}"));
        }
        // A bad token past the capacity is still a bad register.
        refused_at(&one_block("  t0 = add t0, t0, x\n  ret\n"), 6, "bad register `x`");
        // A second source for a unary op fits, and is the rule walk's.
        let text = one_block("  t0 = neg t0, t0\n  ret\n");
        assert!(parse_module_syntax(&text).is_ok());
        assert_eq!(parse_module(&text).unwrap_err().line, 6);
    }

    #[test]
    fn a_second_module_header_is_refused() {
        // Read in full, the second header would drop `@f` and leave its
        // line map behind for `@g`.
        let text = "module m (0 words data)\nentry @0\nfunc @f() {\nb0:\n  ret\n}\nmodule other (0 words data)\nentry @0\nfunc @g() {\nb0:\n  jmp b7\n}\n";
        refused_at(text, 7, "a second `module` header");
    }

    #[test]
    fn a_module_function_without_its_closing_brace_is_refused() {
        let text = "module m (0 words data)\nentry @0\nfunc @main() {\nb0:\n  ret\n}\nfunc @g() {\nb0:\n  ret\n";
        refused_at(text, 9, "missing closing `}`");
    }

    #[test]
    fn header_parameters_must_be_declared_temporaries_of_their_class() {
        let text =
            "module m (0 words data)\nentry @0\nfunc @main(t0:f) {\n  temps t0:i\nb0:\n  ret\n}\n";
        refused_at(text, 3, "parameter t0:f is declared t0:i");
        let text = "module m (0 words data)\nentry @0\nfunc @main(t5:i) {\nb0:\n  ret\n}\n";
        refused_at(text, 3, "parameter t5:i is not a declared temporary");
        let f = parse_function("func @p(t1:f) {\n  temps t0:i t1:f\nb0:\n  ret\n}\n").unwrap();
        assert_eq!(f.params, [Temp(1)]);
    }

    #[test]
    fn names_come_from_the_printer_tables() {
        let text = "func @n() {\n  temps t0:i t1:f\nb0:\n  t1 = itof t0\n  call !putfloat (f0)\n  beq t0, b0, b0\n}\n";
        let f = parse_function(text).unwrap();
        assert_eq!(f.to_string(), text);
        let e = parse_function("func @n() {\nb0:\n  call !putstring ()\n  ret\n}\n").unwrap_err();
        assert_eq!(e.to_string(), "line 3: bad callee `!putstring`");
    }
}
