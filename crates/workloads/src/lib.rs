//! Synthetic benchmark kernels standing in for SPEC17, SPLASH2, and
//! PARSEC.
//!
//! The paper's results are driven by a handful of microarchitectural
//! axes: L1 hit rate (Delay-On-Miss), load-address dependence chains (STT
//! and Early Pinning), branch predictability (the Spectre lower bound),
//! store pressure (the write-buffer pinning condition), and inter-core
//! sharing (MCV squashes, pin conflicts, the starvation protocol). Each
//! kernel here pins down a point in that space; the two suites span it
//! the way the paper's figures span their benchmarks. `DESIGN.md`
//! documents the substitution.
//!
//! # Examples
//!
//! ```
//! use pl_base::MachineConfig;
//! use pl_machine::Machine;
//! use pl_workloads::{spec_suite, Scale};
//!
//! let suite = spec_suite(Scale::Test);
//! assert!(suite.len() >= 10);
//! let cfg = MachineConfig::default_single_core();
//! let mut m = Machine::new(&cfg).unwrap();
//! suite[0].install(&mut m);
//! let result = m.run(50_000_000).unwrap();
//! assert!(result.total_retired() > 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod parallel;
pub mod spec;

pub use attack::{attack_scenario, attack_suite, AttackScenario, Gadget};
pub use parallel::parallel_suite;
pub use spec::spec_suite;

use pl_base::{Addr, CoreId, SimRng};
use pl_isa::{Program, Reg};
use pl_machine::Machine;

/// How big a kernel run should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// Tiny runs for unit/integration tests (seconds in debug builds).
    Test,
    /// The default benchmarking size used by the figure harnesses.
    #[default]
    Bench,
    /// Longer runs for tighter statistics.
    Full,
}

impl Scale {
    /// Multiplier applied to each kernel's base iteration count.
    pub fn factor(self) -> u64 {
        match self {
            Scale::Test => 1,
            Scale::Bench => 8,
            Scale::Full => 32,
        }
    }
}

/// A ready-to-install benchmark: per-core programs plus initial memory
/// and register state.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Short kernel name used in result tables.
    pub name: String,
    /// One program per core (single-element for the SPEC-like suite).
    pub programs: Vec<Program>,
    /// Initial memory image.
    pub init_mem: Vec<(Addr, u64)>,
    /// Initial architectural registers, per core.
    pub init_regs: Vec<Vec<(Reg, u64)>>,
}

impl Workload {
    /// Installs programs, memory, and registers into `machine`.
    ///
    /// # Panics
    ///
    /// Panics if the machine has fewer cores than the workload expects.
    pub fn install(&self, machine: &mut Machine) {
        assert!(
            machine.config().num_cores >= self.programs.len(),
            "workload `{}` needs {} cores",
            self.name,
            self.programs.len()
        );
        for (i, p) in self.programs.iter().enumerate() {
            machine.load_program(CoreId(i), p.clone());
        }
        for &(addr, v) in &self.init_mem {
            machine.write_mem(addr, v);
        }
        for (i, regs) in self.init_regs.iter().enumerate() {
            for &(r, v) in regs {
                machine.set_reg(CoreId(i), r, v);
            }
        }
    }

    /// Number of cores this workload occupies.
    pub fn cores(&self) -> usize {
        self.programs.len()
    }
}

/// Registers conventionally used by the generators.
pub(crate) mod regs {
    use pl_isa::Reg;

    pub fn r(i: u8) -> Reg {
        Reg::new(i).expect("register index below 32")
    }
}

/// Builds a randomized singly linked list of `nodes` nodes spaced
/// `stride` bytes apart starting at `base`; returns the initial memory
/// writes and the address of the head node.
///
/// The traversal order is a random permutation, so hardware prefetchers
/// (and the cache) see a dependent, irregular pointer chase.
pub(crate) fn build_linked_list(
    base: u64,
    nodes: u64,
    stride: u64,
    rng: &mut SimRng,
) -> (Vec<(Addr, u64)>, u64) {
    assert!(nodes >= 2);
    let mut order: Vec<u64> = (0..nodes).collect();
    rng.shuffle(&mut order);
    let mut mem = Vec::with_capacity(nodes as usize);
    for w in order.windows(2) {
        mem.push((Addr::new(base + w[0] * stride), base + w[1] * stride));
    }
    // Terminate with a null pointer.
    mem.push((Addr::new(base + order[nodes as usize - 1] * stride), 0));
    (mem, base + order[0] * stride)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pl_base::MachineConfig;

    #[test]
    fn scale_factors_increase() {
        assert!(Scale::Test.factor() < Scale::Bench.factor());
        assert!(Scale::Bench.factor() < Scale::Full.factor());
    }

    #[test]
    fn linked_list_is_a_full_cycle() {
        let mut rng = SimRng::new(1);
        let (mem, head) = build_linked_list(0x1000, 16, 64, &mut rng);
        assert_eq!(mem.len(), 16);
        // Follow the chain: must visit all 16 nodes then hit null.
        let lookup: std::collections::HashMap<u64, u64> =
            mem.iter().map(|&(a, v)| (a.raw(), v)).collect();
        let mut visited = 0;
        let mut p = head;
        while p != 0 {
            p = lookup[&p];
            visited += 1;
        }
        assert_eq!(visited, 16);
    }

    #[test]
    fn every_spec_kernel_runs_and_retires() {
        let cfg = MachineConfig::default_single_core();
        for w in spec_suite(Scale::Test) {
            let mut m = Machine::new(&cfg).unwrap();
            w.install(&mut m);
            let res = m
                .run(50_000_000)
                .unwrap_or_else(|e| panic!("kernel `{}` failed: {e}", w.name));
            assert!(res.total_retired() > 200, "kernel `{}` barely ran", w.name);
        }
    }

    #[test]
    fn every_parallel_kernel_runs_on_four_cores() {
        let cfg = MachineConfig::default_multi_core(4);
        for w in parallel_suite(4, Scale::Test) {
            let mut m = Machine::new(&cfg).unwrap();
            w.install(&mut m);
            let res = m
                .run(100_000_000)
                .unwrap_or_else(|e| panic!("kernel `{}` failed: {e}", w.name));
            assert!(res.total_retired() > 400, "kernel `{}` barely ran", w.name);
        }
    }

    #[test]
    fn suites_have_distinct_names() {
        let names: Vec<String> = spec_suite(Scale::Test)
            .into_iter()
            .map(|w| w.name)
            .collect();
        let unique: std::collections::HashSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn install_rejects_undersized_machine() {
        let cfg = MachineConfig::default_single_core();
        let mut m = Machine::new(&cfg).unwrap();
        let w = parallel_suite(2, Scale::Test).remove(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            w.install(&mut m);
        }));
        assert!(result.is_err());
    }
}
