//! A parser for the IR's textual form, the exact format the `Display`
//! implementations print — so modules and functions round-trip through
//! text. Useful for hand-written test inputs, golden files, and the CLI.

use std::fmt;
use std::ops::ControlFlow;

use crate::block::BlockId;
use crate::function::{Function, SlotId, ValidateError};
use crate::inst::{Callee, Cond, ExtFn, FuncId, Ins, Inst, OpCode, SpillTag};
use crate::module::Module;
use crate::reg::{PhysReg, Reg, RegClass, Temp};

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
/// relative to the text handed to the parser — [`parse_module_with_lines`]
/// offsets them so they are file-relative.
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

    fn offset(&mut self, by: usize) {
        self.header += by;
        for b in &mut self.insts {
            for l in b.iter_mut() {
                *l += by;
            }
        }
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

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T> {
    Err(ParseError { line, msg: msg.into() })
}

fn parse_class(s: &str, line: usize) -> Result<RegClass> {
    match s {
        "i" => Ok(RegClass::Int),
        "f" => Ok(RegClass::Float),
        _ => err(line, format!("unknown register class `{s}`")),
    }
}

fn parse_reg(s: &str, line: usize) -> Result<Reg> {
    let (head, rest) = s.split_at(1);
    let idx = || -> Result<u32> {
        rest.parse().map_err(|_| ParseError { line, msg: format!("bad register `{s}`") })
    };
    match head {
        "t" => Ok(Reg::Temp(Temp(idx()?))),
        "r" => Ok(Reg::Phys(PhysReg::int(idx()? as u8))),
        "f" => Ok(Reg::Phys(PhysReg::float(idx()? as u8))),
        _ => err(line, format!("bad register `{s}`")),
    }
}

fn parse_phys(s: &str, line: usize) -> Result<PhysReg> {
    match parse_reg(s, line)? {
        Reg::Phys(p) => Ok(p),
        Reg::Temp(_) => err(line, format!("expected physical register, got `{s}`")),
    }
}

fn parse_temp(s: &str, line: usize) -> Result<Temp> {
    match parse_reg(s, line)? {
        Reg::Temp(t) => Ok(t),
        Reg::Phys(_) => err(line, format!("expected temporary, got `{s}`")),
    }
}

fn parse_block(s: &str, line: usize) -> Result<BlockId> {
    s.strip_prefix('b')
        .and_then(|n| n.parse().ok())
        .map(BlockId)
        .ok_or_else(|| ParseError { line, msg: format!("bad block label `{s}`") })
}

fn opcode_by_mnemonic(s: &str) -> Option<OpCode> {
    use OpCode::*;
    Some(match s {
        "add" => Add,
        "sub" => Sub,
        "mul" => Mul,
        "div" => Div,
        "rem" => Rem,
        "and" => And,
        "or" => Or,
        "xor" => Xor,
        "shl" => Shl,
        "shr" => Shr,
        "cmpeq" => CmpEq,
        "cmplt" => CmpLt,
        "cmple" => CmpLe,
        "neg" => Neg,
        "not" => Not,
        "fadd" => FAdd,
        "fsub" => FSub,
        "fmul" => FMul,
        "fdiv" => FDiv,
        "fcmpeq" => FCmpEq,
        "fcmplt" => FCmpLt,
        "fcmple" => FCmpLe,
        "fneg" => FNeg,
        "fabs" => FAbs,
        "fsqrt" => FSqrt,
        "itof" => IntToFloat,
        "ftoi" => FloatToInt,
        _ => return None,
    })
}

fn cond_by_mnemonic(s: &str) -> Option<Cond> {
    Some(match s {
        "beq" => Cond::Eq,
        "bne" => Cond::Ne,
        "blt" => Cond::Lt,
        "ble" => Cond::Le,
        "bgt" => Cond::Gt,
        "bge" => Cond::Ge,
        _ => return None,
    })
}

fn split_tag(line: &str) -> (&str, SpillTag) {
    if let Some((body, comment)) = line.split_once(';') {
        let tag = match comment.trim() {
            "EvictLoad" => SpillTag::EvictLoad,
            "EvictStore" => SpillTag::EvictStore,
            "EvictMove" => SpillTag::EvictMove,
            "ResolveLoad" => SpillTag::ResolveLoad,
            "ResolveStore" => SpillTag::ResolveStore,
            "ResolveMove" => SpillTag::ResolveMove,
            _ => SpillTag::None,
        };
        (body.trim_end(), tag)
    } else {
        (line, SpillTag::None)
    }
}

/// `[base+offset]` (offset may itself be negative: `[t4+-48]`).
fn parse_addr(s: &str, line: usize) -> Result<(Reg, i32)> {
    let inner = s
        .strip_prefix('[')
        .and_then(|x| x.strip_suffix(']'))
        .ok_or_else(|| ParseError { line, msg: format!("bad address `{s}`") })?;
    let (base, off) = inner
        .split_once('+')
        .ok_or_else(|| ParseError { line, msg: format!("bad address `{s}`") })?;
    let offset: i32 =
        off.parse().map_err(|_| ParseError { line, msg: format!("bad offset `{off}`") })?;
    Ok((parse_reg(base, line)?, offset))
}

struct FuncParser {
    func: Function,
    current: Option<BlockId>,
}

impl FuncParser {
    /// Parses `func @name(...) {`.
    fn start(header: &str, lineno: usize) -> Result<FuncParser> {
        let rest = header
            .strip_prefix("func @")
            .ok_or_else(|| ParseError { line: lineno, msg: "expected `func @...`".into() })?;
        let open =
            rest.find('(').ok_or_else(|| ParseError { line: lineno, msg: "missing `(`".into() })?;
        let name = &rest[..open];
        let close =
            rest.find(')').ok_or_else(|| ParseError { line: lineno, msg: "missing `)`".into() })?;
        let params_str = &rest[open + 1..close];
        let mut func = Function::new(name);
        let mut params = Vec::new();
        for p in params_str.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (t, class) = p
                .split_once(':')
                .ok_or_else(|| ParseError { line: lineno, msg: format!("bad param `{p}`") })?;
            params.push((parse_temp(t, lineno)?, parse_class(class, lineno)?));
        }
        // Parameter temps are declared by the `temps` line; remember them.
        for (t, _) in &params {
            func.params.push(*t);
        }
        let _ = params;
        Ok(FuncParser { func, current: None })
    }

    fn temps_line(&mut self, rest: &str, lineno: usize) -> Result<()> {
        for decl in rest.split_whitespace() {
            let (t, class) = decl
                .split_once(':')
                .ok_or_else(|| ParseError { line: lineno, msg: format!("bad temp `{decl}`") })?;
            let t = parse_temp(t, lineno)?;
            let class = parse_class(class, lineno)?;
            if t.index() != self.func.num_temps() {
                return err(lineno, format!("temp {t} declared out of order"));
            }
            self.func.new_temp(class, None);
        }
        Ok(())
    }

    fn note_slot(&mut self, t: Temp, slot_str: Option<&str>, lineno: usize) -> Result<()> {
        if let Some(s) = slot_str {
            let id: u32 = s
                .parse()
                .map_err(|_| ParseError { line: lineno, msg: format!("bad slot `{s}`") })?;
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

    fn inst_line(&mut self, body: &str, tag: SpillTag, lineno: usize) -> Result<()> {
        let Some(current) = self.current else {
            return err(lineno, "instruction outside a block");
        };
        let inst = self.parse_inst(body, lineno)?;
        self.func.block_mut(current).insts.push(Ins::tagged(inst, tag));
        Ok(())
    }

    fn parse_inst(&mut self, body: &str, lineno: usize) -> Result<Inst> {
        let tokens: Vec<&str> = body.split([' ', ',']).filter(|t| !t.is_empty()).collect();
        if tokens.is_empty() {
            return err(lineno, "empty instruction");
        }
        // Forms starting with a keyword.
        match tokens[0] {
            "st" => {
                // st [base+off], src
                let (base, offset) = parse_addr(tokens[1], lineno)?;
                let src = parse_reg(tokens[2], lineno)?;
                return Ok(Inst::Store { src, base, offset });
            }
            "spill" => {
                // spill tY (slot N), rX   |   spill tY, rX
                let temp = parse_temp(tokens[1], lineno)?;
                let (slot, src_tok) = if tokens[2].starts_with("(slot") {
                    (Some(tokens[3].trim_end_matches(')')), tokens[4])
                } else {
                    (None, tokens[2])
                };
                self.note_slot(temp, slot, lineno)?;
                let src = parse_reg(src_tok, lineno)?;
                return Ok(Inst::SpillStore { src, temp });
            }
            "call" => {
                // call @3 (r1, r2) -> r0  |  call !getchar ()
                let callee = match tokens[1].split_at(1) {
                    ("@", id) => Callee::Func(FuncId(id.parse().map_err(|_| ParseError {
                        line: lineno,
                        msg: format!("bad function id `{}`", tokens[1]),
                    })?)),
                    ("!", name) => Callee::Ext(match name {
                        "getchar" => ExtFn::GetChar,
                        "putint" => ExtFn::PutInt,
                        "putchar" => ExtFn::PutChar,
                        "putfloat" => ExtFn::PutFloat,
                        _ => return err(lineno, format!("unknown external `{name}`")),
                    }),
                    _ => return err(lineno, format!("bad callee `{}`", tokens[1])),
                };
                let mut arg_regs = Vec::new();
                let mut ret_regs = Vec::new();
                let mut in_rets = false;
                for tok in &tokens[2..] {
                    let tok = tok.trim_matches(|c| c == '(' || c == ')');
                    if tok.is_empty() {
                        continue;
                    }
                    if tok == "->" {
                        in_rets = true;
                        continue;
                    }
                    let p = parse_phys(tok, lineno)?;
                    if in_rets {
                        ret_regs.push(p);
                    } else {
                        arg_regs.push(p);
                    }
                }
                return Ok(Inst::Call { callee, arg_regs, ret_regs });
            }
            "jmp" => return Ok(Inst::Jump { target: parse_block(tokens[1], lineno)? }),
            "ret" => {
                let mut ret_regs = Vec::new();
                for tok in &tokens[1..] {
                    ret_regs.push(parse_phys(tok, lineno)?);
                }
                return Ok(Inst::Ret { ret_regs });
            }
            t if cond_by_mnemonic(t).is_some() => {
                let cond = cond_by_mnemonic(t).unwrap();
                let src = parse_reg(tokens[1], lineno)?;
                let then_tgt = parse_block(tokens[2], lineno)?;
                let else_tgt = parse_block(tokens[3], lineno)?;
                return Ok(Inst::Branch { cond, src, then_tgt, else_tgt });
            }
            _ => {}
        }
        // Assignment forms: `<dst> = ...`.
        if tokens.len() < 3 || tokens[1] != "=" {
            return err(lineno, format!("unrecognised instruction `{body}`"));
        }
        let dst = parse_reg(tokens[0], lineno)?;
        let rhs = &tokens[2..];
        match rhs[0] {
            "ld" => {
                let (base, offset) = parse_addr(rhs[1], lineno)?;
                Ok(Inst::Load { dst, base, offset })
            }
            "reload" => {
                let temp = parse_temp(rhs[1], lineno)?;
                let slot = if rhs.len() > 2 && rhs[2].starts_with("(slot") {
                    Some(rhs[3].trim_end_matches(')'))
                } else {
                    None
                };
                self.note_slot(temp, slot, lineno)?;
                Ok(Inst::SpillLoad { dst, temp })
            }
            op if opcode_by_mnemonic(op).is_some() => {
                let op = opcode_by_mnemonic(op).unwrap();
                let mut srcs = Vec::new();
                for tok in &rhs[1..] {
                    srcs.push(parse_reg(tok, lineno)?);
                }
                Ok(Inst::Op { op, dst, srcs })
            }
            single if rhs.len() == 1 => {
                // Move or immediate.
                if let Ok(imm) = single.parse::<i64>() {
                    Ok(Inst::MovI { dst, imm })
                } else if let Ok(imm) = single.parse::<f64>() {
                    Ok(Inst::MovF { dst, imm })
                } else {
                    Ok(Inst::Mov { dst, src: parse_reg(single, lineno)? })
                }
            }
            other => err(lineno, format!("unrecognised operation `{other}`")),
        }
    }
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
    let (f, map) = function_syntax(text)?;
    f.validate().map_err(|e| located(e, &map))?;
    Ok((f, map))
}

/// A [`ValidateError`] as a [`ParseError`] at the offending instruction's
/// line, or else at the function header.
fn located(e: ValidateError, map: &FunctionLines) -> ParseError {
    ParseError { line: map.line_of(e.block, e.inst).unwrap_or(map.header), msg: e.to_string() }
}

/// Parses one function's syntax; the IR rules are left to the caller.
fn function_syntax(text: &str) -> Result<(Function, FunctionLines)> {
    let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l));
    let (lineno, header) = lines
        .by_ref()
        .map(|(n, l)| (n, l.trim()))
        .find(|(_, l)| !l.is_empty() && !l.starts_with(';'))
        .ok_or_else(|| ParseError { line: 1, msg: "empty input".into() })?;
    let mut p = FuncParser::start(header, lineno)?;
    let mut map = FunctionLines { header: lineno, insts: Vec::new() };
    for (lineno, raw) in lines {
        let (body, tag) = split_tag(raw);
        let line = body.trim();
        if line.is_empty() || line.starts_with(';') {
            continue;
        }
        if line == "}" {
            return Ok((p.func, map));
        }
        if let Some(rest) = line.strip_prefix("temps ") {
            p.temps_line(rest, lineno)?;
            continue;
        }
        if let Some(label) = line.strip_suffix(':') {
            let id = parse_block(label, lineno)?;
            while p.func.num_blocks() <= id.index() {
                p.func.add_block();
                map.insts.push(Vec::new());
            }
            p.current = Some(id);
            continue;
        }
        p.inst_line(line, tag, lineno)?;
        map.insts[p.current.expect("inst_line checked this").index()].push(lineno);
    }
    err(text.lines().count(), "missing closing `}`")
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
/// body) are file-relative, not function-relative.
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
        None => ParseError { line: 0, msg: e.to_string() },
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
    let mut func_start: Option<usize> = None;
    let mut depth = 0usize;
    let all_lines: Vec<&str> = text.lines().collect();
    for (i, raw) in all_lines.iter().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if func_start.is_some() {
            if line == "}" {
                depth -= 1;
                if depth == 0 {
                    let start = func_start.take().unwrap();
                    let ftext = all_lines[start..=i].join("\n");
                    // Line 1 of `ftext` is file line `start + 1`: offset both
                    // error lines and the recorded source map by `start`.
                    let (f, mut fl) = function_syntax(&ftext)
                        .map_err(|e| ParseError { line: e.line + start, msg: e.msg })?;
                    fl.offset(start);
                    mlines.funcs.push(fl);
                    module
                        .as_mut()
                        .ok_or_else(|| ParseError {
                            line: lineno,
                            msg: "function before module header".into(),
                        })?
                        .add_func(f);
                }
            }
            continue;
        }
        if line.is_empty() || line.starts_with(';') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("module ") {
            let (name, tail) = rest
                .split_once(" (")
                .ok_or_else(|| ParseError { line: lineno, msg: "bad module header".into() })?;
            let words: usize = tail
                .strip_suffix(" words data)")
                .and_then(|w| w.parse().ok())
                .ok_or_else(|| ParseError { line: lineno, msg: "bad module header".into() })?;
            module = Some(Module::new(name, words));
        } else if let Some(rest) = line.strip_prefix("entry @") {
            let id: u32 = rest
                .parse()
                .map_err(|_| ParseError { line: lineno, msg: "bad entry id".into() })?;
            module
                .as_mut()
                .ok_or_else(|| ParseError { line: lineno, msg: "entry before module".into() })?
                .entry = FuncId(id);
        } else if let Some(rest) = line.strip_prefix("data") {
            let m = module
                .as_mut()
                .ok_or_else(|| ParseError { line: lineno, msg: "data before module".into() })?;
            for w in rest.split_whitespace() {
                let v: i64 = w.parse().map_err(|_| ParseError {
                    line: lineno,
                    msg: format!("bad data word `{w}`"),
                })?;
                m.data.push(v);
            }
            if m.data.len() > m.memory_words {
                return err(lineno, "data longer than declared memory");
            }
        } else if line.starts_with("func @") {
            func_start = Some(i);
            depth = 1;
        } else {
            return err(lineno, format!("unexpected line `{line}`"));
        }
    }
    let m = module.ok_or_else(|| ParseError { line: 1, msg: "no module header".into() })?;
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
}
