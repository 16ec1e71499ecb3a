//! `plsim` — run any bundled kernel on any configuration from the
//! command line.
//!
//! ```sh
//! plsim --list
//! plsim --workload stream --scheme fence --pin ep
//! plsim --workload migratory --cores 8 --scheme dom --pin lp --scale bench --stats
//! plsim --asm kernel.s --scheme stt --pin ep --stats
//! ```

use pinned_loads::base::{
    ConfigError, DefenseScheme, MachineConfig, PinMode, PinnedLoadsConfig, ThreatModel,
};
use pinned_loads::machine::Machine;
use pinned_loads::workloads::{parallel_suite, spec_suite, Scale, Workload};

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    asm_file: Option<String>,
    scheme: DefenseScheme,
    pin: PinMode,
    threat: ThreatModel,
    cores: usize,
    scale: Scale,
    conservative_tso: bool,
    show_stats: bool,
    list: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: plsim [options]\n\
         \n\
           --list                     list available kernels and exit\n\
           --workload NAME            run a bundled kernel\n\
           --asm FILE                 assemble and run FILE instead of a bundled kernel\n\
           --scheme unsafe|fence|dom|stt|invisible (default unsafe)\n\
           --pin off|lp|ep                 (default off)\n\
           --threat comp|spectre           (default comp)\n\
           --cores N                       (default 1; >=2 selects the parallel suite)\n\
           --scale test|bench|full         (default bench)\n\
           --conservative-tso              squash even the oldest load\n\
           --stats                         dump all statistics counters"
    );
    std::process::exit(2);
}

fn parse(argv: &[String]) -> Args {
    let mut args = Args {
        workload: None,
        asm_file: None,
        scheme: DefenseScheme::Unsafe,
        pin: PinMode::Off,
        threat: ThreatModel::Comprehensive,
        cores: 1,
        scale: Scale::Bench,
        conservative_tso: false,
        show_stats: false,
        list: false,
    };
    let mut i = 0;
    let value = |argv: &[String], i: usize| -> String {
        argv.get(i + 1).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--list" => args.list = true,
            "--stats" => args.show_stats = true,
            "--conservative-tso" => args.conservative_tso = true,
            "--workload" => {
                args.workload = Some(value(argv, i));
                i += 1;
            }
            "--asm" => {
                args.asm_file = Some(value(argv, i));
                i += 1;
            }
            "--scheme" => {
                args.scheme = match value(argv, i).as_str() {
                    "unsafe" => DefenseScheme::Unsafe,
                    "fence" => DefenseScheme::Fence,
                    "dom" => DefenseScheme::Dom,
                    "stt" => DefenseScheme::Stt,
                    "invisible" => DefenseScheme::Invisible,
                    _ => usage(),
                };
                i += 1;
            }
            "--pin" => {
                args.pin = match value(argv, i).as_str() {
                    "off" => PinMode::Off,
                    "lp" => PinMode::Late,
                    "ep" => PinMode::Early,
                    _ => usage(),
                };
                i += 1;
            }
            "--threat" => {
                args.threat = match value(argv, i).as_str() {
                    "comp" => ThreatModel::Comprehensive,
                    "spectre" => ThreatModel::Spectre,
                    _ => usage(),
                };
                i += 1;
            }
            "--cores" => {
                args.cores = value(argv, i).parse().unwrap_or_else(|_| usage());
                i += 1;
            }
            "--scale" => {
                args.scale = match value(argv, i).as_str() {
                    "test" => Scale::Test,
                    "bench" => Scale::Bench,
                    "full" => Scale::Full,
                    _ => usage(),
                };
                i += 1;
            }
            _ => usage(),
        }
        i += 1;
    }
    args
}

/// Which workload-source flags the user combined, validated up front.
///
/// `--asm` and `--workload` name two different program sources; silently
/// preferring one would run something other than what the user asked
/// for, so combining them is a usage error that names both flags.
fn workload_flag_conflict(workload: &Option<String>, asm_file: &Option<String>) -> Option<String> {
    match (workload, asm_file) {
        (Some(w), Some(a)) => Some(format!(
            "--workload {w} and --asm {a} both name a program source; pass exactly one"
        )),
        _ => None,
    }
}

/// Finds `name` in the suite selected by `cores`, or explains precisely
/// why it isn't there. The old behavior silently switched suites on
/// `--cores >= 2` and then reported the spec kernel as unknown; now the
/// error names both the kernel and the `--cores` flag that deselected
/// its suite.
fn resolve_workload(name: &str, cores: usize, scale: Scale) -> Result<Workload, String> {
    let (selected, other_has_it, selected_label, other_label, fix) = if cores >= 2 {
        (
            parallel_suite(cores, scale),
            spec_suite(Scale::Test).iter().any(|w| w.name == name),
            "parallel (SPLASH2/PARSEC-like)",
            "single-core (SPEC17-like)",
            "drop --cores (or use --cores 1)",
        )
    } else {
        (
            spec_suite(scale),
            parallel_suite(2, Scale::Test)
                .iter()
                .any(|w| w.name == name),
            "single-core (SPEC17-like)",
            "parallel (SPLASH2/PARSEC-like)",
            "pass --cores 2 or more",
        )
    };
    if let Some(w) = selected.into_iter().find(|w| w.name == name) {
        return Ok(w);
    }
    if other_has_it {
        Err(format!(
            "--workload {name} names a kernel in the {other_label} suite, but --cores \
             selected the {selected_label} suite; {fix}"
        ))
    } else {
        Err(format!(
            "unknown workload `{name}`; try --list (note: --cores selects the suite)"
        ))
    }
}

fn build_config(args: &Args) -> MachineConfig {
    let mut cfg = if args.cores >= 2 {
        MachineConfig::default_multi_core(args.cores)
    } else {
        MachineConfig::default_single_core()
    };
    // `--cores 0` must reach `validate`, not fall back to one core.
    cfg.num_cores = args.cores;
    cfg.defense = args.scheme;
    cfg.threat_model = args.threat;
    cfg.pinned_loads = PinnedLoadsConfig::with_mode(args.pin);
    cfg.core.conservative_tso = args.conservative_tso;
    if let Err(e) = cfg.validate() {
        let flag = match e {
            ConfigError::ZeroCores | ConfigError::TooManyCores(_) => "--cores: ",
            _ => "",
        };
        eprintln!("invalid configuration: {flag}{e}");
        std::process::exit(2);
    }
    cfg
}

fn build_workload(args: &Args) -> (String, Workload) {
    if let Some(conflict) = workload_flag_conflict(&args.workload, &args.asm_file) {
        eprintln!("{conflict}");
        std::process::exit(2);
    }
    if let Some(path) = &args.asm_file {
        let source = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read `{path}`: {e}");
            std::process::exit(2);
        });
        let program = pinned_loads::isa::parse_asm(&source).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            std::process::exit(2);
        });
        let w = Workload {
            name: path.clone(),
            programs: vec![program; args.cores],
            init_mem: Vec::new(),
            init_regs: vec![Vec::new(); args.cores],
        };
        (path.clone(), w)
    } else {
        let Some(name) = &args.workload else { usage() };
        match resolve_workload(name, args.cores, args.scale) {
            Ok(w) => (name.clone(), w),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse(&argv);
    if args.list {
        println!("single-core (SPEC17-like) kernels:");
        for w in spec_suite(Scale::Test) {
            println!("  {}", w.name);
        }
        println!("parallel (SPLASH2/PARSEC-like) kernels (use --cores >= 2):");
        for w in parallel_suite(2, Scale::Test) {
            println!("  {}", w.name);
        }
        return;
    }
    // The configuration is validated first: a workload is generated for
    // `--cores` cores, so an out-of-range count must stop before it.
    let cfg = build_config(&args);
    let (name, workload) = build_workload(&args);
    let mut machine = Machine::new(&cfg).expect("validated configuration");
    workload.install(&mut machine);
    match machine.run(5_000_000_000) {
        Ok(res) => {
            println!("workload   {name}");
            println!("config     {}", cfg.label());
            println!("cycles     {}", res.cycles);
            println!("retired    {}", res.total_retired());
            println!("CPI        {:.4}", res.cpi());
            if args.show_stats {
                println!("---- statistics ----");
                print!("{}", res.stats);
            }
        }
        Err(e) => {
            eprintln!("run failed: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asm_plus_workload_is_a_named_conflict() {
        let msg =
            workload_flag_conflict(&Some("stream".to_string()), &Some("kernel.s".to_string()))
                .expect("conflict detected");
        assert!(msg.contains("--workload"), "{msg}");
        assert!(msg.contains("--asm"), "{msg}");
        assert!(workload_flag_conflict(&Some("stream".to_string()), &None).is_none());
        assert!(workload_flag_conflict(&None, &Some("kernel.s".to_string())).is_none());
        assert!(workload_flag_conflict(&None, &None).is_none());
    }

    #[test]
    fn spec_kernel_with_multicore_names_the_cores_flag() {
        // The old code silently switched to the parallel suite and
        // called the spec kernel "unknown".
        let spec_name = &spec_suite(Scale::Test)[0].name.clone();
        let err = resolve_workload(spec_name, 8, Scale::Test).unwrap_err();
        assert!(err.contains(spec_name.as_str()), "{err}");
        assert!(err.contains("--cores"), "{err}");
        assert!(err.contains("SPEC17"), "{err}");
    }

    #[test]
    fn parallel_kernel_without_cores_names_the_cores_flag() {
        let par_name = &parallel_suite(2, Scale::Test)[0].name.clone();
        let err = resolve_workload(par_name, 1, Scale::Test).unwrap_err();
        assert!(err.contains(par_name.as_str()), "{err}");
        assert!(err.contains("--cores 2"), "{err}");
    }

    #[test]
    fn known_kernels_resolve_in_their_suite() {
        let spec_name = &spec_suite(Scale::Test)[0].name.clone();
        assert_eq!(
            resolve_workload(spec_name, 1, Scale::Test).unwrap().name,
            *spec_name
        );
        let par_name = &parallel_suite(4, Scale::Test)[0].name.clone();
        let w = resolve_workload(par_name, 4, Scale::Test).unwrap();
        assert_eq!(w.name, *par_name);
        assert!(w.cores() >= 2);
    }

    #[test]
    fn truly_unknown_kernel_suggests_list() {
        let err = resolve_workload("no_such_kernel", 1, Scale::Test).unwrap_err();
        assert!(err.contains("--list"), "{err}");
    }
}
