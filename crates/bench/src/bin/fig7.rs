//! Figure 7: normalized CPI of the SPEC17-like suite on every defense
//! scheme under Comp / LP / EP / Spectre, normalized to Unsafe.
//!
//! Run with `cargo run --release -p pl-bench --bin fig7
//! [--scale test|bench|full] [--threads N]`.

use pl_base::{DefenseScheme, MachineConfig};
use pl_bench::{
    extension_labels, print_banner, print_scheme_table, scheme_matrix_rows, unsafe_cpis,
};
use pl_workloads::spec_suite;

fn main() {
    let args = pl_bench::parse_args();
    let base = MachineConfig::default_single_core();
    print_banner("Figure 7: SPEC17-like suite, normalized CPI", &base);
    let workloads = spec_suite(args.scale);
    let names: Vec<String> = workloads.iter().map(|w| w.name.clone()).collect();
    let baselines = unsafe_cpis(&base, &workloads, args.threads);
    // One fan-out across the full scheme×workload×extension matrix.
    let schemes = DefenseScheme::PROTECTED;
    let per_scheme = scheme_matrix_rows(&base, &schemes, &workloads, &baselines, args.threads);
    for (scheme, rows) in schemes.iter().zip(&per_scheme) {
        print_scheme_table(*scheme, &extension_labels(&base, *scheme), &names, rows);
    }
    println!(
        "\npaper reference (geo-mean overheads, SPEC17): \
         Fence 112.6/66.4/51.3/34.5%  DOM 35.8/32.3/15.3/9.7%  STT 24.8/19.5/13.2/6.4%"
    );
}
