//! The out-of-order core model.
//!
//! This crate provides [`Core`], a cycle-level out-of-order pipeline with
//! the Table 1 parameters, TSO memory ordering, the Comprehensive threat
//! model's four squash sources, the Fence/DOM/STT defense schemes (with
//! STT's taint tracking, one bit per ROB entry), and both Pinned Loads
//! designs (Late and Early Pinning).
//!
//! A `Core` owns its private L1 and talks to the shared memory system
//! purely through coherence messages; the `pl-machine` crate wires cores,
//! the NoC, and the LLC slices together. The [`core`] module is split into
//! one `impl Core` file per decision (frontend, issue, LSQ, VP and pin
//! pass, coherence, the write transaction, commit, spin parking), and its
//! `scheme` file holds everything a defense scheme does inside the core.
//! Unit tests here exercise the pipeline with memory-free programs;
//! cross-component behavior is tested in `pl-machine` and the workspace
//! integration tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod core;
mod dyninst;

pub use crate::core::{Core, SpinDelta, OCC_SAMPLE_PERIOD};

#[cfg(test)]
mod tests {
    use super::*;
    use pl_base::{CoreId, Cycle, MachineConfig};
    use pl_isa::{AluOp, BranchCond, ProgramBuilder, Reg};
    use pl_mem::Memory;
    use std::sync::Arc;

    fn r(i: u8) -> Reg {
        Reg::new(i).unwrap()
    }

    /// Runs a memory-free program to completion on a single core.
    fn run(builder: ProgramBuilder, max_cycles: u64) -> (Core, Memory) {
        let cfg = MachineConfig::default_single_core();
        let program = Arc::new(builder.build().unwrap());
        let mut core = Core::new(CoreId(0), &cfg, program);
        let mut image = Memory::new();
        for c in 0..max_cycles {
            if core.halted() {
                break;
            }
            core.tick(Cycle(c), &mut image);
        }
        assert!(
            core.halted(),
            "program did not halt within {max_cycles} cycles"
        );
        (core, image)
    }

    #[test]
    fn empty_program_halts() {
        let (core, _) = run(ProgramBuilder::new(), 100);
        assert_eq!(core.retired(), 1); // just the halt
    }

    #[test]
    fn alu_arithmetic_is_architecturally_correct() {
        let mut b = ProgramBuilder::new();
        b.addi(r(1), Reg::ZERO, 5);
        b.addi(r(2), Reg::ZERO, 7);
        b.alu(AluOp::Add, r(3), r(1), r(2));
        b.alu(AluOp::Mul, r(4), r(3), r(1));
        b.alu(AluOp::Xor, r(5), r(4), r(3));
        let (core, _) = run(b, 1000);
        assert_eq!(core.reg(r(3)), 12);
        assert_eq!(core.reg(r(4)), 60);
        assert_eq!(core.reg(r(5)), 60 ^ 12);
    }

    #[test]
    fn counted_loop_executes_right_number_of_times() {
        let mut b = ProgramBuilder::new();
        let top = b.new_label();
        b.addi(r(1), Reg::ZERO, 10); // counter
        b.addi(r(2), Reg::ZERO, 0); // accumulator
        b.bind(top).unwrap();
        b.addi(r(2), r(2), 3);
        b.addi(r(1), r(1), -1);
        b.branch(BranchCond::Ne, r(1), Reg::ZERO, top);
        let (core, _) = run(b, 10_000);
        assert_eq!(core.reg(r(2)), 30);
        assert_eq!(core.reg(r(1)), 0);
    }

    #[test]
    fn data_dependent_branches_squash_and_recover() {
        // Alternating branch outcomes force mispredictions early on; the
        // architectural result must still be exact.
        let mut b = ProgramBuilder::new();
        let top = b.new_label();
        let skip = b.new_label();
        b.addi(r(1), Reg::ZERO, 64); // loop counter
        b.addi(r(2), Reg::ZERO, 0); // taken-path counter
        b.bind(top).unwrap();
        b.alu(AluOp::And, r(3), r(1), 1i64);
        b.branch(BranchCond::Eq, r(3), Reg::ZERO, skip);
        b.addi(r(2), r(2), 1);
        b.bind(skip).unwrap();
        b.addi(r(1), r(1), -1);
        b.branch(BranchCond::Ne, r(1), Reg::ZERO, top);
        let (core, _) = run(b, 50_000);
        assert_eq!(core.reg(r(2)), 32, "odd iterations increment the counter");
    }

    #[test]
    fn calls_and_returns_nest() {
        let mut b = ProgramBuilder::new();
        let f = b.new_label();
        let g = b.new_label();
        let done = b.new_label();
        b.addi(r(1), Reg::ZERO, 0);
        b.call(f);
        b.jump(done);
        b.bind(f).unwrap();
        b.addi(r(1), r(1), 1);
        b.call(g);
        b.addi(r(1), r(1), 4);
        b.ret();
        b.bind(g).unwrap();
        b.addi(r(1), r(1), 2);
        b.ret();
        b.bind(done).unwrap();
        let (core, _) = run(b, 10_000);
        assert_eq!(core.reg(r(1)), 7);
    }

    #[test]
    fn zero_register_is_immutable() {
        let mut b = ProgramBuilder::new();
        b.addi(Reg::ZERO, Reg::ZERO, 99);
        b.addi(r(1), Reg::ZERO, 1);
        let (core, _) = run(b, 1000);
        assert_eq!(core.reg(Reg::ZERO), 0);
        assert_eq!(core.reg(r(1)), 1);
    }

    #[test]
    fn retired_count_matches_dynamic_instructions() {
        let mut b = ProgramBuilder::new();
        let top = b.new_label();
        b.addi(r(1), Reg::ZERO, 5);
        b.bind(top).unwrap();
        b.addi(r(1), r(1), -1);
        b.branch(BranchCond::Ne, r(1), Reg::ZERO, top);
        // 1 init + 5*(2 loop insts) + 1 halt
        let (core, _) = run(b, 10_000);
        assert_eq!(core.retired(), 1 + 10 + 1);
    }

    #[test]
    fn set_reg_seeds_inputs() {
        let cfg = MachineConfig::default_single_core();
        let mut b = ProgramBuilder::new();
        b.alu(AluOp::Add, r(2), r(1), 1i64);
        let program = Arc::new(b.build().unwrap());
        let mut core = Core::new(CoreId(0), &cfg, program);
        core.set_reg(r(1), 41);
        let mut image = Memory::new();
        for c in 0..1000 {
            if core.halted() {
                break;
            }
            core.tick(Cycle(c), &mut image);
        }
        assert_eq!(core.reg(r(2)), 42);
    }
}
