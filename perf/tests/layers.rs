//! The outside-in layer driver reproduces `Machine::run` exactly:
//! cycles, per-core retired counts and the merged-statistics digest, on
//! the single-core and parallel suites under Unsafe, Fence+EP and
//! STT+Comp, and on a verify-on attack scenario with its probe observer.

use pl_attack::{attack_config, decode, ProbeLog};
use pl_base::{DefenseScheme, MachineConfig, PinMode, PinnedLoadsConfig, VerifyConfig};
use pl_machine::{Machine, RunResult};
use pl_perf::layers::{Clock, Driver, Layer};
use pl_perf::run_digest;
use pl_workloads::attack::{attack_scenario, Gadget};
use pl_workloads::{parallel_suite, spec_suite, Scale, Workload};

const BUDGET: u64 = 200_000_000;

fn configs(base: MachineConfig) -> Vec<MachineConfig> {
    [
        (DefenseScheme::Unsafe, PinMode::Off),
        (DefenseScheme::Fence, PinMode::Early),
        (DefenseScheme::Stt, PinMode::Off),
    ]
    .into_iter()
    .map(|(scheme, mode)| {
        let mut cfg = base.clone();
        cfg.defense = scheme;
        cfg.pinned_loads = PinnedLoadsConfig::with_mode(mode);
        cfg
    })
    .collect()
}

fn machine_run(cfg: &MachineConfig, w: &Workload) -> RunResult {
    let mut m = Machine::new(cfg).expect("valid config");
    w.install(&mut m);
    m.run(BUDGET).expect("machine run completes")
}

fn assert_driver_matches(cfg: &MachineConfig, w: &Workload) {
    let want = machine_run(cfg, w);
    let mut driver = Driver::new(cfg, w).expect("driver builds");
    let mut clock = Clock::start();
    let got = driver
        .run(BUDGET, &mut clock)
        .expect("driver run completes");
    let label = format!("{} on {}", w.name, cfg.label());
    assert_eq!(got.cycles, want.cycles, "{label}: cycles");
    assert_eq!(
        got.retired_per_core, want.retired_per_core,
        "{label}: retired"
    );
    assert_eq!(run_digest(&got), run_digest(&want), "{label}: stats digest");
    let ticks = clock.times.calls[Layer::CoreTick as usize];
    assert_eq!(
        ticks,
        want.cycles * cfg.num_cores as u64,
        "{label}: core ticks"
    );
}

#[test]
fn driver_matches_machine_on_spec_kernels() {
    let suite = spec_suite(Scale::Test);
    for cfg in configs(MachineConfig::default_single_core()) {
        for w in &suite {
            assert_driver_matches(&cfg, w);
        }
    }
}

#[test]
fn driver_matches_machine_on_parallel_kernels() {
    let suite = parallel_suite(2, Scale::Test);
    for cfg in configs(MachineConfig::default_multi_core(2)) {
        for w in &suite {
            assert_driver_matches(&cfg, w);
        }
    }
}

#[test]
fn driver_matches_machine_on_a_verify_on_attack_scenario() {
    let sc = attack_scenario(Gadget::InterferenceMshr, 2, 8, 24, pl_perf::DEFAULT_SEED);
    let mut cfg = attack_config(&configs(MachineConfig::default_multi_core(2))[2]);
    cfg.verify = VerifyConfig::enabled();

    let mut m = Machine::new(&cfg).expect("valid config");
    sc.workload.install(&mut m);
    m.set_check_observer(Box::new(ProbeLog::new(sc.observer_core)));
    let want = m.run(BUDGET).expect("machine run completes");
    let mut want_obs = m.take_check_observer().expect("observer attached");

    let mut driver = Driver::new(&cfg, &sc.workload).expect("driver builds");
    driver.set_check_observer(Box::new(ProbeLog::new(sc.observer_core)));
    let mut clock = Clock::start();
    let got = driver
        .run(BUDGET, &mut clock)
        .expect("driver run completes");
    let mut got_obs = driver.take_check_observer().expect("observer attached");

    assert_eq!(got.cycles, want.cycles);
    assert_eq!(got.retired_per_core, want.retired_per_core);
    assert_eq!(run_digest(&got), run_digest(&want));
    let records = |o: &mut Box<dyn pl_base::CheckObserver>| {
        o.as_any_mut()
            .downcast_mut::<ProbeLog>()
            .expect("a ProbeLog")
            .records
            .clone()
    };
    let (want_log, got_log) = (records(&mut want_obs), records(&mut got_obs));
    assert!(!want_log.is_empty(), "the observer saw retired loads");
    assert_eq!(got_log, want_log, "probe logs differ");
    assert_eq!(decode(&sc, &got_log), decode(&sc, &want_log));
    let observed = clock.times.calls[Layer::VerifyObserver as usize];
    assert!(observed > 0, "observer calls are timed");
}
