//! Extension experiment: an InvisiSpec-class invisible-speculation
//! defense under the Comprehensive and Spectre threat models.
//!
//! The paper's Section 4 lists invisible execution as a third class of
//! baseline ("pre-VP loads can be issued invisibly, but need to be
//! followed by a second access later on", Section 1) but does not
//! evaluate one. This harness does: pre-VP loads bind their value without
//! touching the cache hierarchy and are validated by an exposed access at
//! their VP, so the overhead is the validation traffic plus retirement
//! stalls. Pinned Loads cannot ride on top: exposure validation is a
//! squash source *at* the VP, so it could squash an already-pinned load,
//! and [`MachineConfig::validate`] rejects the LP/EP combinations. The
//! table therefore has the Comp and Spectre columns only.
//!
//! Run with `cargo run --release -p pl-bench --bin invisible
//! [--scale ...] [--cores N] [--threads N]`.

use pl_base::{DefenseScheme, MachineConfig};
use pl_bench::{extension_labels, print_banner, print_scheme_table, scheme_cpi_rows, unsafe_cpis};
use pl_workloads::{parallel_suite, spec_suite};

fn main() {
    let args = pl_bench::parse_args();
    let single = MachineConfig::default_single_core();
    print_banner(
        "Extension: invisible speculation (InvisiSpec-class)",
        &single,
    );

    let workloads = spec_suite(args.scale);
    let names: Vec<String> = workloads.iter().map(|w| w.name.clone()).collect();
    let baselines = unsafe_cpis(&single, &workloads, args.threads);
    let rows = scheme_cpi_rows(
        &single,
        &workloads,
        DefenseScheme::Invisible,
        &baselines,
        args.threads,
    );
    println!("\n=== SPEC17-like suite ===");
    let columns = extension_labels(&single, DefenseScheme::Invisible);
    print_scheme_table(DefenseScheme::Invisible, &columns, &names, &rows);

    let multi = MachineConfig::default_multi_core(args.cores);
    let par = parallel_suite(args.cores, args.scale);
    let par_names: Vec<String> = par.iter().map(|w| w.name.clone()).collect();
    let par_baselines = unsafe_cpis(&multi, &par, args.threads);
    let par_rows = scheme_cpi_rows(
        &multi,
        &par,
        DefenseScheme::Invisible,
        &par_baselines,
        args.threads,
    );
    println!("\n=== Parallel suite ({} cores) ===", args.cores);
    let par_columns = extension_labels(&multi, DefenseScheme::Invisible);
    print_scheme_table(
        DefenseScheme::Invisible,
        &par_columns,
        &par_names,
        &par_rows,
    );

    println!(
        "\nexpected shape: far cheaper than Fence+Comp (values bind early), \
         more expensive than Unsafe (double accesses + retirement stalls); \
         Spectre exposes earlier than Comp, at the resolution of older branches."
    );
}
