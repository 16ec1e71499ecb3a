//! **pinned-loads** — a reproduction of *"Pinned Loads: Taming Speculative
//! Loads in Secure Processors"* (Zhao, Ji, Morrison, Marinov, Torrellas;
//! ASPLOS 2022).
//!
//! This crate is a facade over the workspace: a cycle-level multicore
//! out-of-order simulator with TSO memory ordering and directory-based
//! MESI coherence, three hardware defense schemes against speculative
//! execution attacks (Fence, Delay-On-Miss, STT), and the paper's Pinned
//! Loads technique in both its Late Pinning and Early Pinning designs.
//!
//! # Architecture
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`base`] | `pl-base` | addresses, cycles, configuration (Table 1), stats, RNG |
//! | [`trace`] | `pl-trace` | cycle-level event tracing, Chrome-trace / pipeview exporters |
//! | [`isa`] | `pl-isa` | the RISC-style ISA and program builder |
//! | [`predictor`] | `pl-predictor` | TAGE + loop predictor, BTB, RAS |
//! | [`mem`] | `pl-mem` | caches, MSHRs, write buffer, NoC, directory MESI with the Defer/Abort + GetX*/Inv*/Clear extensions |
//! | [`secure`] | `pl-secure` | VP masks, defense policies, CST, CPT, pin governor |
//! | [`cpu`] | `pl-cpu` | the out-of-order pipeline, with STT taint tracking |
//! | [`machine`] | `pl-machine` | the assembled multicore machine |
//! | [`workloads`] | `pl-workloads` | SPEC17-like and SPLASH2/PARSEC-like kernels |
//! | [`mod@bench`] | `pl-bench` | sweep fan-out, the run memo, and the generators of every figure and table under `results/` |
//!
//! # Quickstart
//!
//! ```
//! use pinned_loads::base::{DefenseScheme, MachineConfig, PinMode, PinnedLoadsConfig};
//! use pinned_loads::machine::Machine;
//! use pinned_loads::workloads::{spec_suite, Scale};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A Fence-defended core accelerated with Early Pinning.
//! let mut cfg = MachineConfig::default_single_core();
//! cfg.defense = DefenseScheme::Fence;
//! cfg.pinned_loads = PinnedLoadsConfig::with_mode(PinMode::Early);
//!
//! let workload = &spec_suite(Scale::Test)[0]; // "stream"
//! let mut machine = Machine::new(&cfg)?;
//! workload.install(&mut machine);
//! let result = machine.run(100_000_000)?;
//! println!("CPI = {:.3}", result.cpi());
//! # Ok(())
//! # }
//! ```
//!
//! See `DESIGN.md` for the system inventory, `docs/INTERNALS.md` for a mechanism walkthrough, `EXPERIMENTS.md` for the
//! paper-versus-measured comparison, and [`bench::figures`] for the
//! generators that the `regen` binary runs to rebuild `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pl_base as base;
pub use pl_bench as bench;
pub use pl_cpu as cpu;
pub use pl_isa as isa;
pub use pl_machine as machine;
pub use pl_mem as mem;
pub use pl_predictor as predictor;
pub use pl_secure as secure;
pub use pl_trace as trace;
pub use pl_workloads as workloads;
