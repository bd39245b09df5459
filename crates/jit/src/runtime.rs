//! The native runtime: the `Env` block shared between Rust and JIT code,
//! the `extern "C"` helper routines, and W^X executable memory.
//!
//! # The `Env` ABI
//!
//! Generated code keeps a single pointer (in `rbx`) to one [`Env`] block for
//! the whole run. The per-tag spill counters, the call/memory/move counters,
//! the fuel/depth limits, the error cell, the data-memory descriptor, and the
//! call transfer register file live at fixed offsets in it; the lowering
//! bakes those offsets (taken via `offset_of!`, so Rust's own layout is the
//! single source of truth) into `inc`/`cmp`/`mov` instructions. Fields are
//! all 8 bytes wide so `repr(C)` gives a flat, padding-free prefix.
//!
//! The remaining fuel is the one counter that does not live in `Env` while
//! code runs: the trampoline loads [`Env::fuel`] into `r13`, every
//! instruction decrements the register, and the trampoline stores it back.
//! The total and the untagged count follow from it afterwards (see
//! [`crate::MappedModule::run`]).
//!
//! # W^X protocol
//!
//! Code is encoded into a plain `Vec<u8>`, copied into an anonymous
//! `mmap(PROT_READ|PROT_WRITE)` region, and only then flipped to
//! `PROT_READ|PROT_EXEC` with `mprotect` — the mapping is never writable
//! and executable at the same time. Both syscalls go through self-declared
//! bindings (no external crates). On hosts where the final `mprotect` (or
//! the probe call) fails — non-Linux, non-x86-64, or `noexec`/SELinux
//! `execmem`-restricted environments — [`jit_supported`] reports `false`
//! and every entry point degrades to [`crate::JitError::Unsupported`].

use std::sync::OnceLock;

use lsra_vm::OutputEvent;

/// Error codes written by generated code into [`Env::err_code`].
pub mod err {
    /// Integer division or remainder by zero.
    pub const DIV_BY_ZERO: u64 = 1;
    /// Data-memory access outside `0..memory_words`.
    pub const OUT_OF_BOUNDS: u64 = 2;
    /// Instruction budget exhausted.
    pub const FUEL: u64 = 3;
    /// Call depth exceeded `max_depth`.
    pub const DEPTH: u64 = 4;
}

/// Upper bound on per-class register-file size addressable through the
/// transfer arrays (register indices are `u8`).
pub const MAX_REGS: usize = 256;

/// Host-side I/O state reached from helper routines via [`Env::io`].
/// Opaque to generated code.
#[derive(Debug, Default)]
pub(crate) struct IoState {
    pub input: Vec<u8>,
    pub pos: usize,
    pub output: Vec<OutputEvent>,
}

/// The runtime block generated code addresses through `rbx`.
///
/// Counter fields mirror [`lsra_vm::DynCounts`] except for `total` and
/// `by_tag[0]`, which the runtime derives from the fuel spent; `by_tag` uses
/// the VM's `tag_index` order (index 0 = untagged program instructions).
#[repr(C)]
#[derive(Debug)]
pub struct Env {
    /// Executed instructions per spill category (`DynCounts::by_tag`).
    /// Generated code bumps only the spill tags `1..`; index 0 stays 0.
    pub by_tag: [u64; 7],
    /// Executed calls (`DynCounts::calls`).
    pub calls: u64,
    /// Executed memory operations (`DynCounts::memory_ops`).
    pub memory_ops: u64,
    /// Executed register moves (`DynCounts::moves`).
    pub moves: u64,
    /// Remaining instruction budget. The trampoline loads it into `r13`
    /// before the entry call and stores `r13` back after it; wrapped past
    /// zero when the run ends in a fuel fault.
    pub fuel: u64,
    /// Current call depth (incremented in every function prologue).
    pub depth: u64,
    /// Depth limit; exceeding it raises `StackOverflow`.
    pub max_depth: u64,
    /// Error cell: 0 while running, an [`err`] code after a bail.
    pub err_code: u64,
    /// Function id recorded with `DIV_BY_ZERO` / `OUT_OF_BOUNDS`.
    pub err_func: u64,
    /// Faulting word address recorded with `OUT_OF_BOUNDS`.
    pub err_addr: i64,
    /// Base of data memory (word-addressed `i64`s); generated code keeps a
    /// copy in `r12`.
    pub mem_base: *mut i64,
    /// Data memory size in words; generated code keeps a copy in `r14`.
    pub mem_words: u64,
    /// Integer register index of the entry function's returned value, or -1;
    /// written by every `Ret` from statically-known return registers.
    pub last_ret_reg: i64,
    /// Host I/O state for the `getchar`/`put*` helpers.
    pub(crate) io: *mut IoState,
    /// Integer-class call transfer file: callers stage arguments here, every
    /// `Ret` publishes the callee's full integer register file here.
    pub xfer_int: [i64; MAX_REGS],
    /// Float-class transfer file (raw f64 bits).
    pub xfer_float: [u64; MAX_REGS],
}

impl Env {
    /// A zeroed `Env` on the heap (the transfer files make it ~4 KiB).
    pub(crate) fn boxed() -> Box<Env> {
        Box::new(Env {
            by_tag: [0; 7],
            calls: 0,
            memory_ops: 0,
            moves: 0,
            fuel: 0,
            depth: 0,
            max_depth: 0,
            err_code: 0,
            err_func: 0,
            err_addr: 0,
            mem_base: std::ptr::null_mut(),
            mem_words: 0,
            last_ret_reg: -1,
            io: std::ptr::null_mut(),
            xfer_int: [0; MAX_REGS],
            xfer_float: [0; MAX_REGS],
        })
    }
}

// Env field offsets baked into generated code (and checked by the static
// verifier in `lsra-verify`, which re-exports them through `crate::abi`).

/// Offset of [`Env::by_tag`] (7 contiguous 8-byte counters).
pub const OFF_BY_TAG: i32 = std::mem::offset_of!(Env, by_tag) as i32;
/// Offset of [`Env::calls`].
pub const OFF_CALLS: i32 = std::mem::offset_of!(Env, calls) as i32;
/// Offset of [`Env::memory_ops`].
pub const OFF_MEMORY_OPS: i32 = std::mem::offset_of!(Env, memory_ops) as i32;
/// Offset of [`Env::moves`].
pub const OFF_MOVES: i32 = std::mem::offset_of!(Env, moves) as i32;
/// Offset of [`Env::fuel`].
pub const OFF_FUEL: i32 = std::mem::offset_of!(Env, fuel) as i32;
/// Offset of [`Env::depth`].
pub const OFF_DEPTH: i32 = std::mem::offset_of!(Env, depth) as i32;
/// Offset of [`Env::max_depth`].
pub const OFF_MAX_DEPTH: i32 = std::mem::offset_of!(Env, max_depth) as i32;
/// Offset of [`Env::err_code`].
pub const OFF_ERR_CODE: i32 = std::mem::offset_of!(Env, err_code) as i32;
/// Offset of [`Env::err_func`].
pub const OFF_ERR_FUNC: i32 = std::mem::offset_of!(Env, err_func) as i32;
/// Offset of [`Env::err_addr`].
pub const OFF_ERR_ADDR: i32 = std::mem::offset_of!(Env, err_addr) as i32;
/// Offset of [`Env::mem_base`].
pub const OFF_MEM_BASE: i32 = std::mem::offset_of!(Env, mem_base) as i32;
/// Offset of [`Env::mem_words`].
pub const OFF_MEM_WORDS: i32 = std::mem::offset_of!(Env, mem_words) as i32;
/// Offset of [`Env::last_ret_reg`].
pub const OFF_LAST_RET: i32 = std::mem::offset_of!(Env, last_ret_reg) as i32;
/// Offset of [`Env::xfer_int`].
pub const OFF_XFER_INT: i32 = std::mem::offset_of!(Env, xfer_int) as i32;
/// Offset of [`Env::xfer_float`].
pub const OFF_XFER_FLOAT: i32 = std::mem::offset_of!(Env, xfer_float) as i32;

/// Absolute address of the helper routine the lowering embeds (as a
/// `movabs` immediate) for an external call to `ext`. Process-constant, so
/// a compiled buffer can be statically checked against it.
///
/// `inline(never)`: the fn-pointer coercion must be codegen'd exactly
/// once. Inlined into multiple codegen units, each copy can resolve the
/// coercion to a *different* duplicate of the helper symbol, and then the
/// address the lowering embeds would not equal the address the verifier
/// compares against.
#[inline(never)]
pub fn helper_address(ext: lsra_ir::ExtFn) -> usize {
    match ext {
        lsra_ir::ExtFn::GetChar => rt_getchar as *const () as usize,
        lsra_ir::ExtFn::PutInt => rt_putint as *const () as usize,
        lsra_ir::ExtFn::PutChar => rt_putchar as *const () as usize,
        lsra_ir::ExtFn::PutFloat => rt_putfloat as *const () as usize,
    }
}

/// Absolute address of the out-of-line `f64 as i64` helper used by
/// `FloatToInt` lowering. `inline(never)` for the same reason as
/// [`helper_address`].
#[inline(never)]
pub fn ftoi_address() -> usize {
    rt_ftoi as *const () as usize
}

// ---- extern "C" helper routines called from generated code ----
//
// Helper addresses are embedded as absolute `movabs` immediates: they are
// process constants, so the encoded buffer stays copyable (only rel32
// references are position-relative, and those all stay inside the buffer).
// Float arguments travel as raw bits in integer registers to keep call
// emission uniform. None of these helpers unwind.

/// `getchar`: next input byte, or -1 at end of input.
pub(crate) unsafe extern "C" fn rt_getchar(env: *mut Env) -> i64 {
    let io = &mut *(*env).io;
    if io.pos < io.input.len() {
        let c = io.input[io.pos] as i64;
        io.pos += 1;
        c
    } else {
        -1
    }
}

/// `putint`: append an integer output event.
pub(crate) unsafe extern "C" fn rt_putint(env: *mut Env, v: i64) {
    (*(*env).io).output.push(OutputEvent::Int(v));
}

/// `putchar`: append a character output event (low byte).
pub(crate) unsafe extern "C" fn rt_putchar(env: *mut Env, v: i64) {
    (*(*env).io).output.push(OutputEvent::Char(v as u8));
}

/// `putfloat`: append a float output event (payload arrives as bits).
pub(crate) unsafe extern "C" fn rt_putfloat(env: *mut Env, bits: u64) {
    (*(*env).io).output.push(OutputEvent::Float(bits));
}

/// Rust's saturating `f64 as i64` cast (NaN -> 0), called out-of-line so the
/// native backend matches the VM bit-for-bit without re-deriving the clamp
/// sequence from `cvttsd2si`.
pub(crate) extern "C" fn rt_ftoi(bits: u64) -> i64 {
    f64::from_bits(bits) as i64
}

// ---- executable memory ----

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod exec_impl {
    use std::ffi::c_void;

    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const PROT_EXEC: i32 = 4;
    const MAP_PRIVATE: i32 = 2;
    const MAP_ANONYMOUS: i32 = 0x20;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    /// An anonymous mapping holding executable code; unmapped on drop.
    #[derive(Debug)]
    pub struct ExecMem {
        ptr: *mut u8,
        len: usize,
    }

    // The mapping is immutable (RX) after construction.
    unsafe impl Send for ExecMem {}
    unsafe impl Sync for ExecMem {}

    impl ExecMem {
        /// Maps `code` W^X-safely: RW mapping, copy, flip to RX.
        pub fn new(code: &[u8]) -> Result<ExecMem, String> {
            if code.is_empty() {
                return Err("cannot map empty code buffer".into());
            }
            unsafe {
                let ptr = mmap(
                    std::ptr::null_mut(),
                    code.len(),
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS,
                    -1,
                    0,
                );
                if ptr as isize == -1 || ptr.is_null() {
                    return Err("mmap(PROT_READ|PROT_WRITE) failed".into());
                }
                std::ptr::copy_nonoverlapping(code.as_ptr(), ptr as *mut u8, code.len());
                if mprotect(ptr, code.len(), PROT_READ | PROT_EXEC) != 0 {
                    munmap(ptr, code.len());
                    return Err(
                        "mprotect(PROT_READ|PROT_EXEC) refused (noexec environment?)".into()
                    );
                }
                Ok(ExecMem { ptr: ptr as *mut u8, len: code.len() })
            }
        }

        /// Address of byte `offset` within the mapping.
        ///
        /// # Panics
        ///
        /// Panics if `offset` is out of range.
        pub fn addr(&self, offset: usize) -> *const u8 {
            assert!(offset < self.len);
            unsafe { self.ptr.add(offset) }
        }
    }

    impl Drop for ExecMem {
        fn drop(&mut self) {
            unsafe {
                munmap(self.ptr as *mut c_void, self.len);
            }
        }
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod exec_impl {
    /// Stub for hosts that cannot execute the generated x86-64 code.
    #[derive(Debug)]
    pub struct ExecMem {}

    impl ExecMem {
        /// Always fails: execution requires Linux x86-64.
        pub fn new(_code: &[u8]) -> Result<ExecMem, String> {
            Err("native execution requires a Linux x86-64 host".into())
        }

        /// Unreachable (construction always fails).
        pub fn addr(&self, _offset: usize) -> *const u8 {
            unreachable!("ExecMem stub cannot be constructed")
        }
    }
}

pub(crate) use exec_impl::ExecMem;

/// Byte pattern of the support probe: `mov eax, 42; ret`.
const PROBE_STUB: [u8; 6] = [0xB8, 0x2A, 0x00, 0x00, 0x00, 0xC3];

fn probe() -> bool {
    let mem = match ExecMem::new(&PROBE_STUB) {
        Ok(m) => m,
        Err(_) => return false,
    };
    // SAFETY: the mapping holds exactly the probe stub, a valid
    // parameterless function returning 42 in eax.
    let f: extern "C" fn() -> i32 = unsafe { std::mem::transmute(mem.addr(0)) };
    f() == 42
}

/// True when this process can map and execute generated code.
///
/// Probes once per process by mapping and calling a six-byte stub through
/// the same W^X path real code uses; the result is cached. Setting the
/// `LSRA_JIT_DISABLE` environment variable forces `false`, which exercises
/// every fallback path on hosts where the JIT would work.
pub fn jit_supported() -> bool {
    static SUPPORTED: OnceLock<bool> = OnceLock::new();
    *SUPPORTED.get_or_init(|| {
        #[allow(
            clippy::disallowed_methods,
            reason = "a host setting, not an allocator option: CI runs the no-exec fallbacks with it"
        )]
        let disabled = std::env::var_os("LSRA_JIT_DISABLE").is_some();
        !disabled && probe()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_counter_prefix_is_flat() {
        // The lowering indexes by_tag as OFF_BY_TAG + 8*i and relies on the
        // DynCounts-mirroring fields being contiguous 8-byte cells.
        assert_eq!(OFF_BY_TAG, 0);
        assert_eq!(OFF_CALLS, 56);
        assert_eq!(OFF_MEMORY_OPS, 64);
        assert_eq!(OFF_MOVES, 72);
        assert_eq!(OFF_FUEL, 80);
        assert_eq!(OFF_XFER_FLOAT - OFF_XFER_INT, (MAX_REGS * 8) as i32);
    }

    #[test]
    fn ftoi_matches_rust_cast_semantics() {
        for (x, want) in [
            (3.9f64, 3i64),
            (-3.9, -3),
            (f64::NAN, 0),
            (f64::INFINITY, i64::MAX),
            (f64::NEG_INFINITY, i64::MIN),
            (1e300, i64::MAX),
        ] {
            assert_eq!(rt_ftoi(x.to_bits()), want, "cast of {x}");
        }
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn probe_stub_executes() {
        if jit_supported() {
            assert!(probe());
        }
    }
}
