//! Modules: collections of functions plus a static data image.

use crate::function::Function;
use crate::inst::FuncId;

/// A compilation unit: functions, an entry point, and an initial memory
/// image (word-addressed).
#[derive(Clone, Debug, PartialEq)]
pub struct Module {
    /// The module's name (benchmark name in the evaluation harness).
    pub name: String,
    /// The functions, indexed by [`FuncId`].
    pub funcs: Vec<Function>,
    /// Entry function executed by the VM.
    pub entry: FuncId,
    /// Initial contents of data memory (word `i` holds `data[i]`); memory
    /// beyond the image reads as zero up to `memory_words`.
    pub data: Vec<i64>,
    /// Total data memory size in words.
    pub memory_words: usize,
}

impl Module {
    /// Creates an empty module with `memory_words` words of zeroed memory.
    pub fn new(name: impl Into<String>, memory_words: usize) -> Self {
        Module {
            name: name.into(),
            funcs: Vec::new(),
            entry: FuncId(0),
            data: Vec::new(),
            memory_words,
        }
    }

    /// Adds a function and returns its id.
    pub fn add_func(&mut self, f: Function) -> FuncId {
        let id = FuncId(self.funcs.len() as u32);
        self.funcs.push(f);
        id
    }

    /// Shared access to a function.
    #[inline]
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.index()]
    }

    /// Mutable access to a function.
    #[inline]
    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.funcs[id.index()]
    }

    /// All function ids.
    pub fn func_ids(&self) -> impl Iterator<Item = FuncId> {
        (0..self.funcs.len() as u32).map(FuncId)
    }

    /// Reserves a region of `words` words of static memory, initialised with
    /// `init` (shorter than `words` is zero-padded), and returns its word
    /// address.
    ///
    /// # Panics
    ///
    /// Panics if `init` is longer than `words` or the region exceeds the
    /// module's memory size.
    pub fn reserve(&mut self, words: usize, init: &[i64]) -> i64 {
        assert!(init.len() <= words, "initialiser longer than region");
        let addr = self.data.len();
        self.data.extend_from_slice(init);
        self.data.resize(addr + words, 0);
        assert!(self.data.len() <= self.memory_words, "static data exceeds memory size");
        addr as i64
    }

    /// Validates every function in the module.
    ///
    /// # Errors
    ///
    /// Returns the first [`crate::ValidateError`] found, plus checks that
    /// every `Call` names a function that exists.
    pub fn validate(&self) -> Result<(), crate::ValidateError> {
        for f in &self.funcs {
            f.validate()?;
            for b in f.block_ids() {
                for (i, ins) in f.block(b).insts.iter().enumerate() {
                    if let crate::Inst::Call { callee: crate::Callee::Func(id), .. } = ins.inst {
                        if id.index() >= self.funcs.len() {
                            return Err(crate::ValidateError {
                                func: f.name.clone(),
                                block: b,
                                inst: i,
                                msg: format!("call to unknown function {id:?}"),
                            });
                        }
                    }
                }
            }
        }
        if self.entry.index() >= self.funcs.len() {
            return Err(crate::ValidateError {
                func: "<module>".into(),
                block: crate::BlockId(0),
                inst: 0,
                msg: "entry function does not exist".into(),
            });
        }
        Ok(())
    }

    /// Checks that every function fits `spec` (see
    /// [`crate::Function::check_fits`]). Assumes [`Module::validate`] passed.
    ///
    /// # Errors
    ///
    /// Returns the first instruction that reads more distinct temporaries
    /// of one class than `spec` has registers of that class, or else the
    /// highest-numbered register the module names that `spec` lacks (see
    /// [`crate::Function::check_fits`]).
    pub fn check_fits(&self, spec: &crate::MachineSpec) -> Result<(), crate::ValidateError> {
        let mut worst: Option<(u8, crate::ValidateError)> = None;
        for f in &self.funcs {
            if let Some(m) = f.fits(spec)? {
                if worst.as_ref().is_none_or(|w| m.0 > w.0) {
                    worst = Some(m);
                }
            }
        }
        worst.map_or(Ok(()), |(_, e)| Err(e))
    }

    /// Total instruction count over all functions (static size).
    pub fn num_insts(&self) -> usize {
        self.funcs.iter().map(|f| f.num_insts()).sum()
    }

    /// Total temporary (register-candidate) count over all functions.
    pub fn num_temps(&self) -> usize {
        self.funcs.iter().map(|f| f.num_temps()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_lays_out_regions() {
        let mut m = Module::new("m", 100);
        let a = m.reserve(10, &[1, 2, 3]);
        let b = m.reserve(5, &[]);
        assert_eq!(a, 0);
        assert_eq!(b, 10);
        assert_eq!(m.data[0..3], [1, 2, 3]);
        assert_eq!(m.data[3], 0);
        assert_eq!(m.data.len(), 15);
    }

    #[test]
    #[should_panic(expected = "exceeds memory size")]
    fn reserve_checks_bounds() {
        let mut m = Module::new("m", 4);
        m.reserve(10, &[]);
    }

    #[test]
    fn validate_checks_entry() {
        let m = Module::new("m", 0);
        assert!(m.validate().is_err(), "empty module has no entry function");
    }
}
