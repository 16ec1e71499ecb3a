//! Figure 8: normalized CPI of the SPLASH2/PARSEC-like parallel suite on
//! every defense scheme under Comp / LP / EP / Spectre.
//!
//! Run with `cargo run --release -p pl-bench --bin fig8
//! [--scale ...] [--cores N] [--threads N]`.

use pl_base::{DefenseScheme, MachineConfig};
use pl_bench::{
    extension_labels, print_banner, print_scheme_table, scheme_matrix_rows, unsafe_cpis,
};
use pl_workloads::parallel_suite;

fn main() {
    let args = pl_bench::parse_args();
    let base = MachineConfig::default_multi_core(args.cores);
    print_banner("Figure 8: SPLASH2/PARSEC-like suite, normalized CPI", &base);
    let workloads = parallel_suite(args.cores, args.scale);
    let names: Vec<String> = workloads.iter().map(|w| w.name.clone()).collect();
    let baselines = unsafe_cpis(&base, &workloads, args.threads);
    let schemes = DefenseScheme::PROTECTED;
    let per_scheme = scheme_matrix_rows(&base, &schemes, &workloads, &baselines, args.threads);
    for (scheme, rows) in schemes.iter().zip(&per_scheme) {
        print_scheme_table(*scheme, &extension_labels(&base, *scheme), &names, rows);
    }
    println!(
        "\npaper reference (geo-mean overheads, SPLASH2/PARSEC): \
         Fence 113.1/51.2/46.4/31.1%  DOM 15.8/12.7/7.6/4.2%  STT 11.3/8.7/8.1/5.1%"
    );
}
