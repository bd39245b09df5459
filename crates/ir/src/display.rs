//! Textual form of the IR, for diagnostics, examples, and golden tests.

use std::fmt;

use crate::function::Function;
use crate::inst::{Callee, Inst, SpillTag};
use crate::module::Module;

struct InstDisplay<'a> {
    inst: &'a Inst,
    func: &'a Function,
}

impl fmt::Display for InstDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inst {
            Inst::Op { op, dst, srcs } => {
                write!(f, "{dst} = {}", op.mnemonic())?;
                for (i, s) in srcs.iter().enumerate() {
                    write!(f, "{} {s}", if i == 0 { "" } else { "," })?;
                }
                Ok(())
            }
            Inst::MovI { dst, imm } => write!(f, "{dst} = {imm}"),
            Inst::MovF { dst, imm } => write!(f, "{dst} = {imm:?}"),
            Inst::Mov { dst, src } => write!(f, "{dst} = {src}"),
            Inst::Load { dst, base, offset } => write!(f, "{dst} = ld [{base}+{offset}]"),
            Inst::Store { src, base, offset } => write!(f, "st [{base}+{offset}], {src}"),
            Inst::SpillLoad { dst, temp } => {
                let slot = self.func.spill_slots[temp.index()];
                match slot {
                    Some(s) => write!(f, "{dst} = reload {temp} (slot {})", s.0),
                    None => write!(f, "{dst} = reload {temp}"),
                }
            }
            Inst::SpillStore { src, temp } => {
                let slot = self.func.spill_slots[temp.index()];
                match slot {
                    Some(s) => write!(f, "spill {temp} (slot {}), {src}", s.0),
                    None => write!(f, "spill {temp}, {src}"),
                }
            }
            Inst::Call { callee, arg_regs, ret_regs } => {
                match callee {
                    Callee::Func(id) => write!(f, "call @{}", id.0)?,
                    Callee::Ext(e) => write!(f, "call !{}", e.name())?,
                }
                write!(f, " (")?;
                for (i, a) in arg_regs.iter().enumerate() {
                    write!(f, "{}{a}", if i == 0 { "" } else { ", " })?;
                }
                write!(f, ")")?;
                if !ret_regs.is_empty() {
                    write!(f, " ->")?;
                    for r in ret_regs {
                        write!(f, " {r}")?;
                    }
                }
                Ok(())
            }
            Inst::Jump { target } => write!(f, "jmp {target}"),
            Inst::Branch { cond, src, then_tgt, else_tgt } => {
                write!(f, "b{} {src}, {then_tgt}, {else_tgt}", cond.mnemonic())
            }
            Inst::Ret { ret_regs } => {
                write!(f, "ret")?;
                for r in ret_regs {
                    write!(f, " {r}")?;
                }
                Ok(())
            }
        }
    }
}

impl Function {
    /// Renders one instruction in textual form.
    pub fn display_inst<'a>(&'a self, inst: &'a Inst) -> impl fmt::Display + 'a {
        InstDisplay { inst, func: self }
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "func @{}(", self.name)?;
        for (i, p) in self.params.iter().enumerate() {
            write!(f, "{}{p}:{}", if i == 0 { "" } else { ", " }, self.temp_class(*p))?;
        }
        writeln!(f, ") {{")?;
        // The temporary table, so the textual form is parseable without
        // class inference (see `lsra_ir::parse`).
        if self.num_temps() > 0 {
            write!(f, "  temps")?;
            for (i, info) in self.temps.iter().enumerate() {
                write!(f, " t{i}:{}", info.class)?;
            }
            writeln!(f)?;
        }
        for b in self.block_ids() {
            writeln!(f, "{b}:")?;
            for ins in &self.block(b).insts {
                write!(f, "  {}", InstDisplay { inst: &ins.inst, func: self })?;
                if ins.tag != SpillTag::None {
                    write!(f, "    ; {}", ins.tag.name())?;
                }
                writeln!(f)?;
            }
        }
        writeln!(f, "}}")
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "module {} ({} words data)", self.name, self.memory_words)?;
        writeln!(f, "entry @{}", self.entry.0)?;
        if !self.data.is_empty() {
            write!(f, "data")?;
            for w in &self.data {
                write!(f, " {w}")?;
            }
            writeln!(f)?;
        }
        for (i, func) in self.funcs.iter().enumerate() {
            writeln!(f, "; @{i}")?;
            write!(f, "{func}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::FunctionBuilder;
    use crate::machine::MachineSpec;
    use crate::reg::RegClass;

    #[test]
    fn function_renders_all_parts() {
        let spec = MachineSpec::alpha_like();
        let mut b = FunctionBuilder::new(&spec, "demo", &[RegClass::Int]);
        let x = b.param(0);
        let y = b.int_temp("y");
        b.movi(y, 3);
        let z = b.int_temp("z");
        b.add(z, x, y);
        b.ret(Some(z.into()));
        let f = b.finish();
        let s = f.to_string();
        assert!(s.contains("func @demo(t0:i)"), "got: {s}");
        assert!(s.contains("t1 = 3"), "got: {s}");
        assert!(s.contains("t2 = add t0, t1"), "got: {s}");
        assert!(s.contains("ret r0"), "got: {s}");
    }
}
