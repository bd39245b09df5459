//! Machine descriptions: register counts, register classes, and the
//! calling-convention register sets that shape register lifetime holes (§2.5
//! of the paper).

use std::ops::Range;

use crate::reg::{PhysReg, RegClass};

/// A description of a target machine's allocatable register files and
/// calling convention.
///
/// The paper targets the Digital Alpha; [`MachineSpec::alpha_like`] models
/// its essential structure (two files, caller-/callee-saved split, argument
/// registers). Small configurations (see [`MachineSpec::small`]) are useful
/// for stress-testing spilling.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineSpec {
    name: String,
    num_regs: [u8; 2],
    caller_saved: [Vec<u8>; 2],
    arg_regs: [Vec<u8>; 2],
    ret_regs: [Vec<u8>; 2],
}

impl MachineSpec {
    /// Creates a machine description.
    ///
    /// `num_regs` gives the allocatable register count per class (indexed by
    /// [`RegClass::index`]); `caller_saved` lists the caller-saved register
    /// indices per class; `arg_regs` the argument-passing registers; and
    /// `ret_regs` the return-value registers.
    ///
    /// # Panics
    ///
    /// Panics if any listed register index is out of range, or if argument
    /// or return registers are not caller-saved (a convention this model
    /// requires: values arriving in or leaving through those registers are
    /// not preserved across calls).
    pub fn new(
        name: impl Into<String>,
        num_regs: [u8; 2],
        caller_saved: [Vec<u8>; 2],
        arg_regs: [Vec<u8>; 2],
        ret_regs: [Vec<u8>; 2],
    ) -> Self {
        for c in RegClass::ALL {
            let i = c.index();
            for &r in caller_saved[i].iter().chain(&arg_regs[i]).chain(&ret_regs[i]) {
                assert!(r < num_regs[i], "register {c}{r} out of range");
            }
            for &r in arg_regs[i].iter().chain(&ret_regs[i]) {
                assert!(
                    caller_saved[i].contains(&r),
                    "argument/return register {c}{r} must be caller-saved"
                );
            }
        }
        MachineSpec { name: name.into(), num_regs, caller_saved, arg_regs, ret_regs }
    }

    /// An Alpha-like machine: 25 allocatable integer registers and 28
    /// floating-point registers. Registers `0..=14` (int) and `0..=15`
    /// (float) are caller-saved; argument values travel in registers `1..=6`
    /// of each class and return values in register `0`.
    ///
    /// The true Alpha reserves several integer registers (sp, gp, at, zero,
    /// ra, pv); we model only the allocatable remainder, which is what the
    /// register allocators compete for.
    pub fn alpha_like() -> Self {
        MachineSpec::new(
            "alpha-like",
            [25, 28],
            [(0..=14).collect(), (0..=15).collect()],
            [(1..=6).collect(), (1..=6).collect()],
            [vec![0], vec![0]],
        )
    }

    /// A small machine with `int` integer and `float` floating-point
    /// registers, for spill stress tests. Roughly half of each file is
    /// caller-saved; one argument register per class (two if the file has at
    /// least four registers, none if it has only one); return register `0`.
    ///
    /// A single-register float file (`small:2,1`) is the extreme fuzzing
    /// configuration: unary float operations and conversions remain
    /// expressible, binary float arithmetic is not (it needs two
    /// simultaneously live float registers).
    ///
    /// # Panics
    ///
    /// Panics if `int < 2` (a return register plus at least one other
    /// register are required) or `float < 1`. Use
    /// [`MachineSpec::try_small`] when the counts come from user input.
    pub fn small(int: u8, float: u8) -> Self {
        MachineSpec::try_small(int, float).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`MachineSpec::small`]: returns an error message instead of
    /// panicking on an infeasible register file, so CLI and protocol paths
    /// can turn bad counts into a usage error.
    ///
    /// # Errors
    ///
    /// Returns a message if `int < 2` or `float < 1`.
    pub fn try_small(int: u8, float: u8) -> Result<Self, String> {
        if int < 2 {
            return Err("need at least 2 integer registers".to_string());
        }
        if float < 1 {
            return Err("need at least 1 float register".to_string());
        }
        let args = |n: u8| -> Vec<u8> {
            if n >= 4 {
                vec![1, 2]
            } else if n >= 2 {
                vec![1]
            } else {
                vec![]
            }
        };
        // Caller-saved: at least half of the file, and always enough to
        // cover the argument and return registers (which must be
        // caller-saved).
        let caller = |n: u8| -> Vec<u8> {
            let max_arg = args(n).iter().max().copied().unwrap_or(0);
            (0..n.div_ceil(2).max(max_arg + 1)).collect()
        };
        Ok(MachineSpec::new(
            format!("small-{int}i{float}f"),
            [int, float],
            [caller(int), caller(float)],
            [args(int), args(float)],
            [vec![0], vec![0]],
        ))
    }

    /// Parses a machine selector as the CLI and the allocation-service
    /// protocol spell it: `alpha` (the [`MachineSpec::alpha_like`] default)
    /// or `small:I,F` (a [`MachineSpec::try_small`] configuration).
    ///
    /// # Errors
    ///
    /// Returns a usage message for unknown selectors, malformed counts, or
    /// infeasible register files (e.g. `small:1,0`), never panicking on user
    /// input.
    pub fn parse(s: &str) -> Result<Self, String> {
        if s == "alpha" {
            return Ok(MachineSpec::alpha_like());
        }
        if let Some(rest) = s.strip_prefix("small:") {
            let (i, f) = rest.split_once(',').ok_or("expected small:I,F")?;
            let i: u8 = i.parse().map_err(|_| "bad int register count")?;
            let f: u8 = f.parse().map_err(|_| "bad float register count")?;
            return MachineSpec::try_small(i, f);
        }
        Err(format!("unknown machine `{s}` (alpha | small:I,F)"))
    }

    /// The selector string [`MachineSpec::parse`] maps back to this spec:
    /// `alpha` for the Alpha-like machine, `small:I,F` for small files.
    pub fn selector(&self) -> String {
        if self.name == "alpha-like" {
            "alpha".to_string()
        } else {
            format!("small:{},{}", self.num_regs(RegClass::Int), self.num_regs(RegClass::Float))
        }
    }

    /// The machine's name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of allocatable registers in `class`.
    #[inline]
    pub fn num_regs(&self, class: RegClass) -> u8 {
        self.num_regs[class.index()]
    }

    /// Iterates over every allocatable register of `class`.
    pub fn regs(&self, class: RegClass) -> impl Iterator<Item = PhysReg> + '_ {
        (0..self.num_regs(class)).map(move |i| PhysReg::new(class, i))
    }

    /// Iterates over every allocatable register of both classes.
    pub fn all_regs(&self) -> impl Iterator<Item = PhysReg> + '_ {
        RegClass::ALL.into_iter().flat_map(|c| self.regs(c))
    }

    /// True if `reg` is clobbered by a call (not preserved by callees).
    #[inline]
    pub fn is_caller_saved(&self, reg: PhysReg) -> bool {
        self.caller_saved[reg.class.index()].contains(&reg.index)
    }

    /// True if `reg` is preserved across calls by the callee.
    #[inline]
    pub fn is_callee_saved(&self, reg: PhysReg) -> bool {
        !self.is_caller_saved(reg)
    }

    /// The caller-saved registers of `class`.
    pub fn caller_saved(&self, class: RegClass) -> impl Iterator<Item = PhysReg> + '_ {
        self.caller_saved[class.index()].iter().map(move |&i| PhysReg::new(class, i))
    }

    /// The callee-saved registers of `class`.
    pub fn callee_saved(&self, class: RegClass) -> impl Iterator<Item = PhysReg> + '_ {
        self.regs(class).filter(|&r| self.is_callee_saved(r))
    }

    /// The argument-passing registers of `class`, in argument order.
    pub fn arg_regs(&self, class: RegClass) -> &[u8] {
        &self.arg_regs[class.index()]
    }

    /// The `i`-th argument register of `class`, if the convention has one.
    pub fn arg_reg(&self, class: RegClass, i: usize) -> Option<PhysReg> {
        self.arg_regs[class.index()].get(i).map(|&r| PhysReg::new(class, r))
    }

    /// The (first) return-value register of `class`.
    pub fn ret_reg(&self, class: RegClass) -> PhysReg {
        PhysReg::new(class, self.ret_regs[class.index()][0])
    }

    /// Total allocatable registers across both classes.
    pub fn total_regs(&self) -> usize {
        self.num_regs.iter().map(|&n| n as usize).sum()
    }

    /// The dense index of `p` in `0..total_regs()`: the integer file first,
    /// then the float file. Every per-register table in the workspace is
    /// laid out this way.
    #[inline]
    pub fn reg_index(&self, p: PhysReg) -> usize {
        match p.class {
            RegClass::Int => p.index as usize,
            RegClass::Float => self.num_regs(RegClass::Int) as usize + p.index as usize,
        }
    }

    /// The register with dense index `d` (the inverse of
    /// [`MachineSpec::reg_index`]).
    #[inline]
    pub fn reg_at(&self, d: usize) -> PhysReg {
        let ni = self.num_regs(RegClass::Int) as usize;
        if d < ni {
            PhysReg::int(d as u8)
        } else {
            PhysReg::float((d - ni) as u8)
        }
    }

    /// The dense indices of `class`'s registers.
    #[inline]
    pub fn reg_indices(&self, class: RegClass) -> Range<usize> {
        let ni = self.num_regs(RegClass::Int) as usize;
        match class {
            RegClass::Int => 0..ni,
            RegClass::Float => ni..self.total_regs(),
        }
    }
}

impl Default for MachineSpec {
    fn default() -> Self {
        MachineSpec::alpha_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_like_register_counts() {
        let m = MachineSpec::alpha_like();
        assert_eq!(m.num_regs(RegClass::Int), 25);
        assert_eq!(m.num_regs(RegClass::Float), 28);
        assert_eq!(m.total_regs(), 53);
        assert_eq!(m.regs(RegClass::Int).count(), 25);
    }

    #[test]
    fn alpha_like_conventions() {
        let m = MachineSpec::alpha_like();
        assert!(m.is_caller_saved(PhysReg::int(0)));
        assert!(m.is_caller_saved(PhysReg::int(14)));
        assert!(m.is_callee_saved(PhysReg::int(15)));
        assert!(m.is_callee_saved(PhysReg::int(24)));
        assert_eq!(m.arg_reg(RegClass::Int, 0), Some(PhysReg::int(1)));
        assert_eq!(m.arg_reg(RegClass::Int, 5), Some(PhysReg::int(6)));
        assert_eq!(m.arg_reg(RegClass::Int, 6), None);
        assert_eq!(m.ret_reg(RegClass::Float), PhysReg::float(0));
    }

    #[test]
    fn caller_callee_partition() {
        let m = MachineSpec::alpha_like();
        for c in RegClass::ALL {
            let caller: Vec<_> = m.caller_saved(c).collect();
            let callee: Vec<_> = m.callee_saved(c).collect();
            assert_eq!(caller.len() + callee.len(), m.num_regs(c) as usize);
            for r in &caller {
                assert!(!callee.contains(r));
            }
        }
    }

    #[test]
    fn small_machine() {
        let m = MachineSpec::small(4, 2);
        assert_eq!(m.num_regs(RegClass::Int), 4);
        assert_eq!(m.caller_saved(RegClass::Int).count(), 3);
        assert!(m.is_caller_saved(PhysReg::int(2)), "arg registers are caller-saved");
        assert!(m.is_callee_saved(PhysReg::int(3)));
        assert_eq!(m.arg_reg(RegClass::Int, 0), Some(PhysReg::int(1)));
        assert_eq!(m.arg_reg(RegClass::Float, 0), Some(PhysReg::float(1)));
    }

    #[test]
    fn single_register_float_file() {
        let m = MachineSpec::small(2, 1);
        assert_eq!(m.num_regs(RegClass::Float), 1);
        assert_eq!(m.arg_regs(RegClass::Float), &[] as &[u8]);
        assert_eq!(m.ret_reg(RegClass::Float), PhysReg::float(0));
        assert!(m.is_caller_saved(PhysReg::float(0)), "return register must be caller-saved");
        assert_eq!(m.arg_reg(RegClass::Int, 0), Some(PhysReg::int(1)));
    }

    #[test]
    fn dense_register_numbering_round_trips() {
        let specs = [
            MachineSpec::alpha_like(),
            MachineSpec::small(2, 1),
            MachineSpec::small(4, 2),
            MachineSpec::small(6, 4),
            MachineSpec::small(3, 7),
        ];
        for m in specs {
            let indices: Vec<usize> = m.all_regs().map(|p| m.reg_index(p)).collect();
            assert_eq!(indices, (0..m.total_regs()).collect::<Vec<_>>(), "{}", m.name());
            for p in m.all_regs() {
                assert_eq!(m.reg_at(m.reg_index(p)), p, "{}", m.name());
            }
            let (int, float) = (m.reg_indices(RegClass::Int), m.reg_indices(RegClass::Float));
            assert_eq!((int.start, int.end, float.end), (0, float.start, m.total_regs()));
            for c in RegClass::ALL {
                assert_eq!(m.reg_indices(c).len(), m.num_regs(c) as usize);
                assert!(m.reg_indices(c).all(|d| m.reg_at(d).class == c), "{}", m.name());
            }
        }
    }

    #[test]
    fn try_small_rejects_infeasible_files_without_panicking() {
        assert!(MachineSpec::try_small(1, 0).is_err());
        assert!(MachineSpec::try_small(2, 0).is_err());
        assert!(MachineSpec::try_small(0, 3).is_err());
        assert_eq!(MachineSpec::try_small(2, 1).unwrap(), MachineSpec::small(2, 1));
    }

    #[test]
    fn parse_and_selector_round_trip() {
        for sel in ["alpha", "small:2,1", "small:4,2", "small:25,28"] {
            let m = MachineSpec::parse(sel).unwrap();
            assert_eq!(m.selector(), sel);
            assert_eq!(MachineSpec::parse(&m.selector()).unwrap(), m);
        }
        assert!(MachineSpec::parse("small:1,0").is_err(), "infeasible file is an error");
        assert!(MachineSpec::parse("small:4").is_err());
        assert!(MachineSpec::parse("vax").is_err());
        assert!(MachineSpec::parse("small:x,y").is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_registers() {
        MachineSpec::new("bad", [2, 2], [vec![5], vec![]], [vec![], vec![]], [vec![0], vec![0]]);
    }

    #[test]
    #[should_panic(expected = "must be caller-saved")]
    fn rejects_callee_saved_arg_regs() {
        MachineSpec::new("bad", [4, 4], [vec![0], vec![0]], [vec![3], vec![]], [vec![0], vec![0]]);
    }
}
