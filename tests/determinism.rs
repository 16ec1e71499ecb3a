//! Bit-exact determinism: the same configuration and workload must
//! produce identical cycle counts, statistics, and results on every run.
//! The figure harnesses and the paper-comparison in `EXPERIMENTS.md`
//! depend on this.

use pinned_loads::base::digest::Fnv1a;
use pinned_loads::base::{DefenseScheme, MachineConfig, PinMode, PinnedLoadsConfig, ThreatModel};
use pinned_loads::bench::sweep::par_map;
use pinned_loads::machine::{Machine, RunResult};
use pinned_loads::secure::VpMask;
use pinned_loads::workloads::{parallel_suite, spec_suite, Scale, Workload};
use pl_verify::faulted;

/// Runs `w` under `cfg`, with `mask` overriding the threat model's VP
/// mask when given (the Figure 1 release points). The mask is set after
/// `install`, whose `load_program` rebuilds each core from `cfg`.
fn run_once(cfg: &MachineConfig, mask: Option<VpMask>, w: &Workload) -> RunResult {
    let mut m = Machine::new(cfg).unwrap();
    w.install(&mut m);
    if let Some(mask) = mask {
        m.set_vp_mask(mask);
    }
    m.run(500_000_000).unwrap()
}

fn assert_identical(cfg: &MachineConfig, w: &Workload) {
    let a = run_once(cfg, None, w);
    let b = run_once(cfg, None, w);
    assert_eq!(
        a.cycles,
        b.cycles,
        "`{}` cycles differ under {}",
        w.name,
        cfg.label()
    );
    assert_eq!(
        a.retired_per_core, b.retired_per_core,
        "`{}` retirement differs",
        w.name
    );
    let a_stats: Vec<(String, u64)> = a.stats.iter().map(|(k, v)| (k.to_string(), v)).collect();
    let b_stats: Vec<(String, u64)> = b.stats.iter().map(|(k, v)| (k.to_string(), v)).collect();
    assert_eq!(
        a_stats,
        b_stats,
        "`{}` statistics differ under {}",
        w.name,
        cfg.label()
    );
}

#[test]
fn single_core_runs_are_bit_identical() {
    let kernels = spec_suite(Scale::Test);
    let mut cfg = MachineConfig::default_single_core();
    cfg.defense = DefenseScheme::Fence;
    cfg.pinned_loads = PinnedLoadsConfig::with_mode(PinMode::Early);
    for w in kernels.iter().take(4) {
        assert_identical(&cfg, w);
    }
}

#[test]
fn multicore_runs_are_bit_identical() {
    let kernels = parallel_suite(4, Scale::Test);
    for (scheme, mode) in [
        (DefenseScheme::Unsafe, PinMode::Off),
        (DefenseScheme::Dom, PinMode::Late),
        (DefenseScheme::Stt, PinMode::Early),
    ] {
        let mut cfg = MachineConfig::default_multi_core(4);
        cfg.defense = scheme;
        cfg.pinned_loads = PinnedLoadsConfig::with_mode(mode);
        // The two most nondeterminism-prone kernels: contended atomics
        // and false sharing.
        for w in kernels
            .iter()
            .filter(|w| ["lock_counter", "false_sharing"].contains(&w.name.as_str()))
        {
            assert_identical(&cfg, w);
        }
    }
}

/// The configurations the golden table pins, in column order, each with
/// the VP mask that overrides its threat model's, if any. Between them
/// they cover every scheme's issue rules, both pinning modes, the
/// invisible bit, and the oldest-load exemption that `conservative_tso`
/// removes. STT runs under all three pinning modes: its taint clears at
/// each load's VP, whose MCV condition differs per mode. Fence without
/// pinning runs under the Comprehensive and Spectre threat models and
/// under Figure 1's "Alias Dep." mask, so each VP condition it waits on
/// is pinned on its own. The last column repeats Fence/EP under seeded
/// NoC fault injection (directory-bound messages jittered by up to 9
/// cycles, each `(src, dst)` pair kept FIFO), so a change to the
/// injector's delivery order moves cycles, not only invariants.
fn golden_configs(cores: usize) -> Vec<(MachineConfig, Option<VpMask>)> {
    use DefenseScheme::*;
    use PinMode::*;
    use ThreatModel::*;
    let alias_dep = VpMask::cumulative()[1].1;
    let points = [
        (Unsafe, Off, false, Comprehensive, None),
        (Fence, Early, false, Comprehensive, None),
        (Dom, Late, false, Comprehensive, None),
        (Stt, Off, false, Comprehensive, None),
        (Invisible, Off, false, Comprehensive, None),
        (Fence, Late, true, Comprehensive, None),
        (Stt, Late, false, Comprehensive, None),
        (Stt, Early, false, Comprehensive, None),
        (Fence, Off, false, Comprehensive, None),
        (Fence, Off, false, Spectre, None),
        (Fence, Off, false, Comprehensive, Some(alias_dep)),
    ];
    let mut configs: Vec<_> = points
        .into_iter()
        .map(|(scheme, mode, conservative, threat, mask)| {
            let mut cfg = if cores == 1 {
                MachineConfig::default_single_core()
            } else {
                MachineConfig::default_multi_core(cores)
            };
            cfg.defense = scheme;
            cfg.pinned_loads = PinnedLoadsConfig::with_mode(mode);
            cfg.core.conservative_tso = conservative;
            cfg.threat_model = threat;
            (cfg, mask)
        })
        .collect();
    let fence_ep = configs[1].0.clone();
    configs.push((faulted(fence_ep, 0xFA017, 9), None));
    configs
}

/// Per workload: cycles under each of [`golden_configs`], then one FNV
/// digest of every run's `retired_per_core` and full statistics.
type GoldenRow = (&'static str, [u64; GOLDEN_COLS], u64);

/// Columns of [`GOLDEN`]: one per [`golden_configs`] point.
const GOLDEN_COLS: usize = 12;

/// Absolute timing of a small matrix, so a change that shifts a single
/// cycle anywhere in the pipeline fails tier-1 rather than only the
/// benchmark digest. Regenerate only for an intended timing change, and
/// say so in the commit. `cas_queue` is the one row whose atomics a
/// pinned sharer defers, so it pins the atomic Abort and GetX* retry.
#[rustfmt::skip]
const GOLDEN: &[GoldenRow] = &[
    ("stream", [7668, 8294, 61211, 7668, 61815, 61810, 7668, 7668, 64807, 7668, 7668, 8800], 0x4596f18bfaeb48da),
    ("chase_cold", [232198, 240366, 239922, 232198, 426938, 240366, 232198, 232198, 240366, 240366, 240366, 259592], 0x7c867c1adf8acf64),
    ("chase_hot", [22596, 32190, 22840, 22596, 23328, 32190, 22596, 22596, 32190, 32190, 32190, 32742], 0x936046005cc11d42),
    ("branch_random", [8987, 11715, 11112, 8987, 11329, 11715, 8987, 8987, 11715, 11715, 11715, 11897], 0xaddb6cceba8b9c6d),
    ("alu_dense", [3206, 3206, 3206, 3206, 3206, 3206, 3206, 3206, 3206, 3206, 3206, 3206], 0xa44273e0568b1dad),
    ("gather", [3333, 4542, 25027, 25899, 26673, 27436, 13269, 3469, 28176, 3333, 3333, 4745], 0x54f020197dc7c9e5),
    ("stencil_rw", [1111, 1111, 1111, 1111, 1117, 1111, 1111, 1111, 2361, 1111, 1111, 1114], 0x0c44927d7ce8f390),
    ("hot_reuse", [1962, 1978, 5364, 1962, 5866, 5860, 1962, 1962, 7508, 1962, 1962, 2061], 0x3705b83cae042c41),
    ("write_burst", [31207, 31207, 31207, 31207, 31207, 31207, 31207, 31207, 31207, 31207, 31207, 32609], 0x8fb130b547078095),
    ("call_tree", [710, 711, 711, 710, 716, 711, 710, 710, 1909, 711, 711, 714], 0xb08c9ba844de1792),
    ("chase_branchy", [151117, 181688, 170202, 167174, 427650, 181688, 167174, 167174, 181688, 181688, 181688, 197805], 0x94a6f98300e4d806),
    ("mixed", [2136, 4955, 6757, 2843, 7393, 11113, 2869, 2474, 11654, 4728, 4954, 4987], 0x2801b0fb2ebb99df),
    ("matrix_block", [1023, 1023, 1025, 1023, 1171, 1174, 1023, 1023, 4081, 1022, 1022, 1031], 0xbba132a63a573667),
    ("byte_scan", [5257, 14441, 11591, 5257, 10840, 14441, 5257, 5257, 14441, 14441, 14441, 14872], 0xc5745b5019bb1265),
    ("random_rw", [1944, 2450, 12636, 1944, 24102, 24104, 1944, 1944, 24838, 1944, 1944, 2587], 0xb150126497d1bb2f),
    ("reduction", [9469, 9532, 15907, 9469, 17182, 17177, 9469, 9469, 25305, 9532, 9532, 9831], 0x21f1829245925db7),
    ("lock_counter", [535, 535, 535, 535, 535, 535, 535, 535, 535, 535, 535, 520], 0x1e59dec97d4f8b24),
    ("cas_queue", [2925, 4560, 3853, 2925, 2957, 2866, 4080, 4538, 2468, 2990, 2944, 5332], 0x6e188a1b127303e7),
    ("spin_relay", [120728, 121344, 120728, 120728, 120797, 121228, 120728, 120728, 120712, 120726, 120726, 121736], 0x5ac2acc70deb1228),
];

#[test]
fn golden_cycles_and_stats_are_pinned() {
    let par = parallel_suite(4, Scale::Test);
    let par = par
        .iter()
        .filter(|w| ["lock_counter", "cas_queue", "spin_relay"].contains(&w.name.as_str()));
    let jobs: Vec<_> = spec_suite(Scale::Test)
        .into_iter()
        .map(|w| (1, w))
        .chain(par.map(|w| (4, w.clone())))
        .flat_map(|(cores, w)| {
            golden_configs(cores)
                .into_iter()
                .map(move |(c, mask)| (w.clone(), c, mask))
        })
        .collect();
    let runs = par_map(2, &jobs, |_, (w, cfg, mask)| run_once(cfg, *mask, w));
    let got: Vec<String> = jobs
        .chunks(GOLDEN_COLS)
        .zip(runs.chunks(GOLDEN_COLS))
        .map(|(j, r)| {
            let mut h = Fnv1a::new();
            for run in r {
                run.retired_per_core.iter().for_each(|&n| h.write_u64(n));
                h.write_str(&run.stats.to_string());
            }
            let cycles: Vec<u64> = r.iter().map(|run| run.cycles).collect();
            format!("(\"{}\", {:?}, {:#018x}),", j[0].0.name, cycles, h.finish())
        })
        .collect();
    let want: Vec<String> = GOLDEN
        .iter()
        .map(|(name, cycles, digest)| format!("(\"{name}\", {cycles:?}, {digest:#018x}),"))
        .collect();
    assert!(
        got == want,
        "golden timing moved; measured table:\n    {}",
        got.join("\n    ")
    );
}

#[test]
fn workload_generation_is_deterministic() {
    let a = spec_suite(Scale::Bench);
    let b = spec_suite(Scale::Bench);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.name, y.name);
        assert_eq!(x.programs, y.programs);
        assert_eq!(x.init_mem, y.init_mem);
    }
}
