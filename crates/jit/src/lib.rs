//! Native x86-64 JIT backend for allocated IR.
//!
//! The paper measured allocation quality by *running* compiled programs on
//! Alpha hardware; this crate closes the same loop for the reproduction. It
//! lowers an *allocated* [`lsra_ir::Module`] (every operand a physical
//! register or spill slot) to x86-64 machine code, maps it W^X-safely, and
//! executes it on the host — with the fuel counted down in a register and
//! the spill, call, memory and move counters incremented inline, so the
//! resulting [`lsra_vm::RunResult`] is field-for-field comparable with
//! [`lsra_vm::run_module`]: same output events, same return value, same
//! memory checksum, same [`lsra_vm::DynCounts`].
//!
//! The crate is dependency-free (only `lsra-ir` and `lsra-vm` from the
//! workspace; syscalls go through self-declared bindings) and degrades
//! gracefully: on hosts that cannot map executable memory, every entry
//! point returns [`JitError::Unsupported`] and [`jit_supported`] lets
//! callers skip up front.
//!
//! ```no_run
//! use lsra_ir::MachineSpec;
//! use lsra_vm::VmOptions;
//!
//! # fn demo(module: &lsra_ir::Module) -> Result<(), lsra_jit::JitRunError> {
//! let spec = MachineSpec::alpha_like();
//! if lsra_jit::jit_supported() {
//!     let code = lsra_jit::compile_module(module, &spec)?;
//!     let result = code.run(b"input", &VmOptions::default())?;
//!     assert_eq!(result.counts.total, result.counts.by_tag.iter().sum());
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod encoder;
mod lower;
mod runtime;

use lsra_ir::{FuncId, Function, MachineSpec, Module};
use lsra_vm::{DynCounts, RunResult, VmError, VmOptions};

pub use runtime::{jit_supported, Env};

use runtime::{err, ExecMem, IoState};

/// The lowering's machine-level contract, re-exported for static analysis.
///
/// Everything generated code and the runtime agree on lives here: the
/// [`Env`] field offsets baked into `inc`/`cmp`/`mov` instructions, the
/// error codes fault stubs write, the per-function [`abi::FrameLayout`],
/// the transfer-file addressing ([`abi::xfer_off`]), the counter-tag order
/// ([`abi::tag_index`]), and the absolute helper addresses embedded at
/// external call sites. The `lsra-verify` crate checks compiled buffers
/// against exactly these constants.
pub mod abi {
    pub use crate::lower::{tag_index, xfer_off, FrameLayout};
    pub use crate::runtime::{err, ftoi_address, helper_address, MAX_REGS};
    pub use crate::runtime::{OFF_BY_TAG, OFF_CALLS, OFF_MEMORY_OPS, OFF_MOVES};
    pub use crate::runtime::{OFF_DEPTH, OFF_FUEL, OFF_MAX_DEPTH};
    pub use crate::runtime::{OFF_ERR_ADDR, OFF_ERR_CODE, OFF_ERR_FUNC};
    pub use crate::runtime::{OFF_LAST_RET, OFF_MEM_BASE, OFF_MEM_WORDS};
    pub use crate::runtime::{OFF_XFER_FLOAT, OFF_XFER_INT};
}

/// A compile-time JIT failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JitError {
    /// This host cannot map or execute generated code (non-x86-64, or a
    /// noexec/W^X-restricted environment). Callers should fall back to the
    /// VM; [`jit_supported`] detects this up front.
    Unsupported(String),
    /// The input still contains virtual operands — run a register allocator
    /// first.
    Unallocated {
        /// Name of the offending function.
        func: String,
    },
    /// The input is structurally unsuitable for native lowering.
    Malformed {
        /// Name of the offending function.
        func: String,
        /// What was wrong.
        what: String,
    },
    /// The data memory, or one function's spill slots, exceed
    /// [`lsra_vm::MAX_WORDS`], the bound the interpreter also enforces.
    TooLarge {
        /// What is too large.
        what: &'static str,
        /// How many words it asked for.
        words: usize,
    },
}

impl std::fmt::Display for JitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JitError::Unsupported(why) => write!(f, "jit unsupported on this host: {why}"),
            JitError::Unallocated { func } => {
                write!(f, "function `{func}` is not register-allocated")
            }
            JitError::Malformed { func, what } => write!(f, "function `{func}`: {what}"),
            JitError::TooLarge { what, words } => {
                write!(f, "{words} {what} exceed the JIT's limit of {}", lsra_vm::MAX_WORDS)
            }
        }
    }
}

impl std::error::Error for JitError {}

/// A failure from compile-and-run convenience entry points: either the JIT
/// could not produce runnable code, or the program faulted at runtime with
/// the same error taxonomy as the interpreter.
#[derive(Clone, Debug, PartialEq)]
pub enum JitRunError {
    /// Compilation or mapping failed.
    Jit(JitError),
    /// The native run faulted (division by zero, memory bounds, fuel,
    /// stack depth) — directly comparable with interpreter errors.
    Vm(VmError),
}

impl std::fmt::Display for JitRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JitRunError::Jit(e) => e.fmt(f),
            JitRunError::Vm(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for JitRunError {}

impl From<JitError> for JitRunError {
    fn from(e: JitError) -> Self {
        JitRunError::Jit(e)
    }
}

/// Compiled (but not yet executable) machine code for a module, plus the
/// static data image needed to run it.
///
/// The raw bytes are exposed through [`CodeBuffer::encoding`] and
/// [`CodeBuffer::func_encoding`] — the byte-level test surface: encoder
/// correctness is asserted against hand-assembled patterns, without a
/// disassembler. [`CodeBuffer::map`] performs the W^X mapping step and
/// yields something executable.
#[derive(Debug)]
pub struct CodeBuffer {
    bytes: Vec<u8>,
    entry_offset: usize,
    func_ranges: Vec<(usize, usize)>,
    data: Vec<i64>,
    memory_words: usize,
}

impl CodeBuffer {
    /// The complete encoded image (trampoline + all functions, relocated).
    pub fn encoding(&self) -> &[u8] {
        &self.bytes
    }

    /// The encoded bytes of one function.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn func_encoding(&self, id: FuncId) -> &[u8] {
        let (start, end) = self.func_ranges[id.index()];
        &self.bytes[start..end]
    }

    /// Byte offset at which the function's code starts in
    /// [`CodeBuffer::encoding`].
    pub fn func_offset(&self, id: FuncId) -> usize {
        self.func_ranges[id.index()].0
    }

    /// Per-function `(start, end)` byte ranges within
    /// [`CodeBuffer::encoding`], indexed by [`FuncId`]. Functions are laid
    /// out in id order immediately after the entry trampoline.
    pub fn func_ranges(&self) -> &[(usize, usize)] {
        &self.func_ranges
    }

    /// Byte offset of the `extern "C" fn(*mut Env)` entry trampoline.
    pub fn entry_offset(&self) -> usize {
        self.entry_offset
    }

    /// Total code size in bytes.
    pub fn code_size(&self) -> usize {
        self.bytes.len()
    }

    /// Maps the code W^X-safely (write into an RW mapping, flip to RX) and
    /// returns the executable image.
    ///
    /// # Errors
    ///
    /// [`JitError::Unsupported`] when this host cannot create executable
    /// mappings (probed via [`jit_supported`]) or the mapping itself fails.
    pub fn map(&self) -> Result<MappedModule<'_>, JitError> {
        if !jit_supported() {
            return Err(JitError::Unsupported(
                "executable-memory probe failed (noexec host or LSRA_JIT_DISABLE set)".into(),
            ));
        }
        let mem = ExecMem::new(&self.bytes).map_err(JitError::Unsupported)?;
        Ok(MappedModule { buf: self, mem })
    }

    /// Maps and runs the module in one step.
    ///
    /// # Errors
    ///
    /// Mapping failures as [`JitRunError::Jit`]; runtime faults as
    /// [`JitRunError::Vm`].
    pub fn run(&self, input: &[u8], options: &VmOptions) -> Result<RunResult, JitRunError> {
        self.map()?.run(input, options)
    }
}

/// Executable, mapped machine code. Create via [`CodeBuffer::map`]; run as
/// many times as needed (each run gets fresh memory, I/O, and counters).
#[derive(Debug)]
pub struct MappedModule<'a> {
    buf: &'a CodeBuffer,
    mem: ExecMem,
}

impl MappedModule<'_> {
    /// Executes the module natively.
    ///
    /// Behaviour matches [`lsra_vm::Vm::run`] on every observable the VM
    /// defines for *successful* interpreted runs: return value, output
    /// events, dynamic counts, and final-memory checksum. Faults surface as
    /// the interpreter's error values for the fault classes native code can
    /// detect (division by zero, memory bounds, fuel, call depth); the VM's
    /// poison/validity diagnostics have no native counterpart.
    ///
    /// # Errors
    ///
    /// [`JitRunError::Vm`] on a runtime fault.
    pub fn run(&self, input: &[u8], options: &VmOptions) -> Result<RunResult, JitRunError> {
        let mut memory = self.buf.data.clone();
        memory.resize(self.buf.memory_words, 0);
        let mut io = IoState { input: input.to_vec(), pos: 0, output: Vec::new() };
        let mut env = Env::boxed();
        env.fuel = options.fuel;
        env.max_depth = options.max_depth as u64;
        env.mem_base = memory.as_mut_ptr();
        env.mem_words = memory.len() as u64;
        env.io = &mut io;
        let entry = self.mem.addr(self.buf.entry_offset);
        // SAFETY: `entry` points at the trampoline emitted by the lowering,
        // an `extern "C" fn(*mut Env)`; the mapping is RX and outlives the
        // call, and `env`/`memory`/`io` outlive it too.
        unsafe {
            let f: unsafe extern "C" fn(*mut Env) = std::mem::transmute(entry);
            f(&mut *env);
        }
        match env.err_code {
            0 => Ok(RunResult {
                ret: if env.last_ret_reg >= 0 {
                    Some(env.xfer_int[env.last_ret_reg as usize])
                } else {
                    None
                },
                output: io.output,
                counts: counts(&env, options.fuel),
                memory_checksum: lsra_vm::memory_checksum(&memory),
            }),
            err::DIV_BY_ZERO => {
                Err(JitRunError::Vm(VmError::DivByZero { func: FuncId(env.err_func as u32) }))
            }
            err::OUT_OF_BOUNDS => Err(JitRunError::Vm(VmError::MemoryOutOfBounds {
                func: FuncId(env.err_func as u32),
                addr: env.err_addr,
            })),
            err::FUEL => Err(JitRunError::Vm(VmError::FuelExhausted)),
            _ => Err(JitRunError::Vm(VmError::StackOverflow)),
        }
    }
}

/// The dynamic counts of a completed run. Generated code counts executed
/// instructions only as fuel spent and bumps only the spill tags, so
/// `total` is the fuel spent and `by_tag[0]` is what the tags do not cover.
fn counts(env: &Env, fuel_in: u64) -> DynCounts {
    let total = fuel_in - env.fuel;
    let mut by_tag = env.by_tag;
    by_tag[0] = total - by_tag[1..].iter().sum::<u64>();
    DynCounts { total, by_tag, calls: env.calls, memory_ops: env.memory_ops, moves: env.moves }
}

/// Compiles every function of an allocated `module` into one relocated
/// [`CodeBuffer`] (entry trampoline first, then functions in id order).
///
/// Compilation itself is pure byte generation and works on any host; only
/// [`CodeBuffer::map`]/[`CodeBuffer::run`] need executable memory.
///
/// # Errors
///
/// [`JitError::Unallocated`] if any operand is still virtual,
/// [`JitError::Malformed`] for structurally unlowerable input, or
/// [`JitError::TooLarge`] for data memory or a frame past
/// [`lsra_vm::MAX_WORDS`].
pub fn compile_module(module: &Module, spec: &MachineSpec) -> Result<CodeBuffer, JitError> {
    check_size("words of data memory", module.memory_words)?;
    for f in &module.funcs {
        check_size("spill slots in a frame", f.num_slots as usize)?;
    }
    let lowered = lower::lower_module(module, spec)?;
    Ok(CodeBuffer {
        bytes: lowered.code,
        entry_offset: lowered.entry_offset,
        func_ranges: lowered.func_ranges,
        data: module.data.clone(),
        memory_words: module.memory_words,
    })
}

/// Compiles a single allocated function as if it were a module's entry, with
/// no data memory and no intra-module call targets (calls to other functions
/// are a [`JitError::Malformed`] error; external calls work).
///
/// # Errors
///
/// As [`compile_module`].
pub fn compile_function(func: &Function, spec: &MachineSpec) -> Result<CodeBuffer, JitError> {
    check_size("spill slots in a frame", func.num_slots as usize)?;
    let lowered = lower::lower_single_function(func, spec)?;
    Ok(CodeBuffer {
        bytes: lowered.code,
        entry_offset: lowered.entry_offset,
        func_ranges: lowered.func_ranges,
        data: Vec::new(),
        memory_words: 0,
    })
}

/// Refuses what the interpreter refuses before lowering: the runtime
/// allocates the whole data memory up front, and [`abi::FrameLayout`] holds
/// slot counts in `i32`, which a huge frame would wrap.
fn check_size(what: &'static str, words: usize) -> Result<(), JitError> {
    if words > lsra_vm::MAX_WORDS {
        return Err(JitError::TooLarge { what, words });
    }
    Ok(())
}

/// Compiles and runs `module` natively with default [`VmOptions`] — the
/// native counterpart of [`lsra_vm::run_module`].
///
/// # Errors
///
/// [`JitRunError::Jit`] when compilation/mapping fails (including
/// unsupported hosts), [`JitRunError::Vm`] on runtime faults.
pub fn run_module_native(
    module: &Module,
    spec: &MachineSpec,
    input: &[u8],
) -> Result<RunResult, JitRunError> {
    compile_module(module, spec)?.run(input, &VmOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsra_ir::{FunctionBuilder, Inst, ModuleBuilder, OpCode, PhysReg, Reg};

    fn spec() -> MachineSpec {
        MachineSpec::alpha_like()
    }

    /// Builds a tiny pre-allocated function directly on physical registers.
    fn phys_func(build: impl FnOnce(&mut FunctionBuilder)) -> Function {
        let s = spec();
        let mut b = FunctionBuilder::new(&s, "f", &[]);
        build(&mut b);
        let mut f = b.finish();
        f.allocated = true;
        f
    }

    #[test]
    fn compile_rejects_virtual_operands() {
        let s = spec();
        let mut b = FunctionBuilder::new(&s, "virt", &[]);
        let t = b.int_temp("t");
        b.movi(t, 1);
        b.ret(Some(t.into()));
        let f = b.finish();
        match compile_function(&f, &s) {
            Err(JitError::Unallocated { func }) => assert_eq!(func, "virt"),
            other => panic!("expected Unallocated, got {other:?}"),
        }
    }

    #[test]
    fn single_function_runs_natively() {
        if !jit_supported() {
            eprintln!("skipping: jit unsupported on this host");
            return;
        }
        let s = spec();
        let r0: Reg = PhysReg::int(0).into();
        let r1: Reg = PhysReg::int(1).into();
        let f = phys_func(|b| {
            b.movi(r0, 6);
            b.movi(r1, 7);
            b.op2(OpCode::Mul, r0, r0, r1);
            b.emit(Inst::Ret { ret_regs: vec![PhysReg::int(0)] });
        });
        let code = compile_function(&f, &s).unwrap();
        let r = code.run(&[], &VmOptions::default()).unwrap();
        assert_eq!(r.ret, Some(42));
        assert_eq!(r.counts.total, 4);
    }

    #[test]
    fn module_matches_vm_on_arithmetic() {
        if !jit_supported() {
            eprintln!("skipping: jit unsupported on this host");
            return;
        }
        let s = spec();
        let mut mb = ModuleBuilder::new("t", 16);
        let r0: Reg = PhysReg::int(0).into();
        let r1: Reg = PhysReg::int(1).into();
        let mut b = FunctionBuilder::new(&s, "main", &[]);
        b.movi(r0, 100);
        b.movi(r1, -7);
        b.op2(OpCode::Div, r0, r0, r1);
        b.emit(Inst::Ret { ret_regs: vec![PhysReg::int(0)] });
        let mut f = b.finish();
        f.allocated = true;
        let id = mb.add(f);
        mb.entry(id);
        let m = mb.finish();
        let vm = lsra_vm::run_module(&m, &s, &[]).unwrap();
        let native = run_module_native(&m, &s, &[]).unwrap();
        assert_eq!(vm, native);
        assert_eq!(native.ret, Some(-14));
    }

    #[test]
    fn compile_refuses_sizes_past_the_vm_bound() {
        let s = spec();
        let mut f = phys_func(|b| b.ret(None));
        f.num_slots = lsra_vm::MAX_WORDS as u32;
        assert!(compile_function(&f, &s).is_ok(), "the bound itself compiles");
        f.num_slots = u32::MAX;
        let want = JitError::TooLarge { what: "spill slots in a frame", words: u32::MAX as usize };
        assert_eq!(compile_function(&f, &s).unwrap_err(), want);

        let mut mb = ModuleBuilder::new("t", 16);
        let id = mb.add(phys_func(|b| b.ret(None)));
        mb.entry(id);
        let mut m = mb.finish();
        m.memory_words = lsra_vm::MAX_WORDS + 1;
        let err = compile_module(&m, &s).unwrap_err();
        assert_eq!(
            err,
            JitError::TooLarge { what: "words of data memory", words: lsra_vm::MAX_WORDS + 1 }
        );
        assert!(err.to_string().contains("exceed the JIT's limit"), "{err}");
        m.memory_words = 16;
        m.funcs[0].num_slots = lsra_vm::MAX_WORDS as u32 + 1;
        assert!(matches!(compile_module(&m, &s), Err(JitError::TooLarge { .. })));
    }
}
