//! Outside-in layer driver.
//!
//! [`Driver`] rebuilds a machine from its components' public
//! constructors and replays `Machine::tick`'s naive per-cycle order
//! through public calls only:
//!
//! 1. `Noc::deliver_into`
//! 2. `Core::handle_msg` for core-bound messages
//! 3. `LlcSlice::handle` for slice-bound messages, under a pin view of
//!    the cores
//! 4. `LlcSlice::tick`
//! 5. `Core::tick`
//! 6. `drain_outbox_into`, cores then slices
//! 7. `Noc::send`
//! 8. with verify on: `drain_check_events` and the check observer
//!
//! Each phase of the tick ends with one [`Clock::mark`], which counts the
//! phase's component calls and charges the time since the previous stamp
//! to the phase's layer. Layers are flat, so a layer's self time is the
//! sum of its intervals and the layers together cover the driver's whole
//! wall time. The run-loop bookkeeping between ticks (quiescence test,
//! watchdog, CPT sampling) is charged to [`Layer::Loop`]. Stamping per
//! phase rather than per call keeps the stamp count at about eight per
//! cycle whatever the core count.
//!
//! The driver must reproduce `Machine::run` exactly (cycles, per-core
//! retired counts and merged statistics); the benchmark refuses to report
//! layer numbers for any job where it does not.

use std::sync::Arc;
use std::time::Instant;

use pl_base::{
    CheckEvent, CheckObserver, CoreId, Cycle, LineAddr, MachineConfig, MachineSnapshot, Stats,
};
use pl_cpu::Core;
use pl_isa::{ProgramBuilder, Reg};
use pl_machine::RunResult;
use pl_mem::{LlcSlice, Memory, Msg, Noc, NodeId, PinView};
use pl_workloads::Workload;

/// `Machine`'s default no-retirement watchdog threshold.
const WATCHDOG_CYCLES: u64 = 300_000;

/// `Machine`'s CPT occupancy sample period.
const CPT_SAMPLE_PERIOD: u64 = 64;

/// One timed boundary of the naive tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Noc::deliver_into`.
    NocDeliver,
    /// `Core::handle_msg`.
    HandleMsg,
    /// `LlcSlice::handle`.
    DirHandle,
    /// `LlcSlice::tick`.
    DirTick,
    /// `Core::tick`.
    CoreTick,
    /// `drain_outbox_into` on a core or a slice.
    OutboxDrain,
    /// `Noc::send`.
    NocSend,
    /// `drain_check_events` on every component.
    VerifyDrain,
    /// The check observer's `on_events`/`on_snapshot`/`on_run_end`.
    VerifyObserver,
    /// Run-loop bookkeeping between ticks.
    Loop,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 10] = [
        Layer::CoreTick,
        Layer::HandleMsg,
        Layer::DirHandle,
        Layer::DirTick,
        Layer::NocSend,
        Layer::NocDeliver,
        Layer::OutboxDrain,
        Layer::VerifyDrain,
        Layer::VerifyObserver,
        Layer::Loop,
    ];

    /// Metric-name prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::NocDeliver => "mem.noc.deliver",
            Layer::HandleMsg => "cpu.handle_msg",
            Layer::DirHandle => "mem.dir.handle",
            Layer::DirTick => "mem.dir.tick",
            Layer::CoreTick => "cpu.tick",
            Layer::OutboxDrain => "outbox.drain",
            Layer::NocSend => "mem.noc.send",
            Layer::VerifyDrain => "verify.drain",
            Layer::VerifyObserver => "verify.observer",
            Layer::Loop => "machine.loop",
        }
    }
}

/// Component calls, clock stamps and accumulated nanoseconds per
/// [`Layer`], each indexed by `Layer as usize`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayerTimes {
    /// Calls into the layer's public function.
    pub calls: [u64; 10],
    /// Clock stamps charged to the layer: one per tick phase that made
    /// at least one call.
    pub stamps: [u64; 10],
    /// Nanoseconds charged to the layer.
    pub ns: [u64; 10],
}

impl LayerTimes {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &LayerTimes) {
        for i in 0..self.calls.len() {
            self.calls[i] += other.calls[i];
            self.stamps[i] += other.stamps[i];
            self.ns[i] += other.ns[i];
        }
    }
}

/// A chained stopwatch: each [`Clock::mark`] charges the interval since
/// the previous stamp to one layer, so one timestamp per phase suffices.
#[derive(Debug, Clone)]
pub struct Clock {
    last: Instant,
    /// Everything charged so far.
    pub times: LayerTimes,
}

impl Clock {
    /// A clock whose first interval starts now.
    pub fn start() -> Clock {
        Clock {
            last: Instant::now(),
            times: LayerTimes::default(),
        }
    }

    /// Counts `calls` calls into `layer` and, if there were any, charges
    /// the time since the previous stamp to it. A phase without calls
    /// takes no stamp; its loop overhead falls to the next phase.
    #[inline]
    pub fn mark(&mut self, layer: Layer, calls: u64) {
        if calls == 0 {
            return;
        }
        let now = Instant::now();
        let i = layer as usize;
        self.times.ns[i] += now.duration_since(self.last).as_nanos() as u64;
        self.times.calls[i] += calls;
        self.times.stamps[i] += 1;
        self.last = now;
    }
}

/// Measured cost of one [`Clock::mark`] with nothing between stamps, in
/// nanoseconds: the median over several batches of back-to-back stamps.
/// Subtracting it per stamp from a layer's time leaves the time spent in
/// the layer itself.
pub fn calibrate_mark_ns() -> f64 {
    const BATCH: u64 = 20_000;
    let mut per_mark: Vec<f64> = (0..5)
        .map(|_| {
            let mut clock = Clock::start();
            let t = Instant::now();
            for _ in 0..BATCH {
                clock.mark(std::hint::black_box(Layer::Loop), 1);
            }
            std::hint::black_box(&clock.times);
            t.elapsed().as_nanos() as f64 / BATCH as f64
        })
        .collect();
    per_mark.sort_by(f64::total_cmp);
    per_mark[per_mark.len() / 2]
}

/// [`PinView`] over the driver's cores, as the machine builds it.
struct Pins<'a>(&'a [Core]);

impl PinView for Pins<'_> {
    fn is_pinned(&self, core: CoreId, line: LineAddr) -> bool {
        self.0
            .get(core.index())
            .is_some_and(|c| c.is_line_pinned(line))
    }
    fn is_pinned_by_any(&self, line: LineAddr) -> bool {
        self.0.iter().any(|c| c.is_line_pinned(line))
    }
}

/// Per-tick scratch buffers, reused so the steady-state tick allocates
/// nothing, as in the machine.
#[derive(Default)]
struct Buffers {
    delivered: Vec<(NodeId, NodeId, Msg)>,
    slice_bound: Vec<(usize, Msg)>,
    outbox: Vec<(NodeId, Msg)>,
    sends: Vec<(NodeId, NodeId, Msg)>,
    checks: Vec<CheckEvent>,
}

/// A machine assembled from public component calls, run by the naive
/// loop with every layer boundary timed.
pub struct Driver {
    cfg: MachineConfig,
    cores: Vec<Core>,
    slices: Vec<LlcSlice>,
    noc: Noc,
    image: Memory,
    now: Cycle,
    observer: Option<Box<dyn CheckObserver>>,
    next_snapshot: u64,
}

impl Driver {
    /// Builds the machine `Machine::new(cfg)` builds and installs
    /// `workload` the way `Workload::install` does.
    ///
    /// # Errors
    ///
    /// Rejects an invalid configuration, one with event tracing on (the
    /// driver does not merge trace logs), and a workload needing more
    /// cores than the configuration has.
    pub fn new(cfg: &MachineConfig, workload: &Workload) -> Result<Driver, String> {
        cfg.validate().map_err(|e| e.to_string())?;
        if cfg.trace.enabled {
            return Err("the layer driver does not support event tracing".to_string());
        }
        if workload.programs.len() > cfg.num_cores {
            return Err(format!(
                "workload `{}` needs {} cores",
                workload.name,
                workload.programs.len()
            ));
        }
        let empty = Arc::new(ProgramBuilder::new().build().expect("empty program builds"));
        let mut cores: Vec<Core> = (0..cfg.num_cores)
            .map(|i| match workload.programs.get(i) {
                Some(p) => Core::new(CoreId(i), cfg, Arc::new(p.clone())),
                None => Core::new(CoreId(i), cfg, Arc::clone(&empty)),
            })
            .collect();
        let mut slices: Vec<LlcSlice> = (0..cfg.mem.llc_slices)
            .map(|i| LlcSlice::new(i, &cfg.mem))
            .collect();
        if cfg.verify.enabled {
            for slice in &mut slices {
                slice.enable_verify(&cfg.verify);
            }
        }
        let mut noc = Noc::with_nodes(
            cfg.mem.mesh_cols,
            cfg.mem.mesh_rows,
            cfg.mem.hop_latency,
            cfg.num_cores,
            cfg.mem.llc_slices,
        );
        if cfg.verify.fault_delay > 0 {
            noc.enable_faults(cfg.verify.fault_seed, cfg.verify.fault_delay);
        }
        let mut image = Memory::new();
        for &(addr, v) in &workload.init_mem {
            image.write(addr, v);
        }
        for (i, regs) in workload.init_regs.iter().enumerate() {
            for &(r, v) in regs {
                cores[i].set_reg(r, v);
            }
        }
        Ok(Driver {
            cfg: cfg.clone(),
            cores,
            slices,
            noc,
            image,
            now: Cycle::ZERO,
            observer: None,
            next_snapshot: cfg.verify.snapshot_period.max(1),
        })
    }

    /// Attaches the check observer (meaningful with verify on).
    pub fn set_check_observer(&mut self, observer: Box<dyn CheckObserver>) {
        self.observer = Some(observer);
    }

    /// Detaches and returns the check observer.
    pub fn take_check_observer(&mut self) -> Option<Box<dyn CheckObserver>> {
        self.observer.take()
    }

    /// Reads an architectural register after the run.
    pub fn reg(&self, core: CoreId, reg: Reg) -> u64 {
        self.cores[core.index()].reg(reg)
    }

    /// The final memory image as a sorted word dump.
    pub fn memory_words(&self) -> Vec<(u64, u64)> {
        self.image.words_sorted()
    }

    fn total_retired(&self) -> u64 {
        self.cores.iter().map(Core::retired).sum()
    }

    fn all_quiesced(&self) -> bool {
        self.cores.iter().all(Core::quiesced) && self.noc.in_flight() == 0
    }

    /// Runs the naive loop until every core quiesces, charging each
    /// boundary to `clock`.
    ///
    /// # Errors
    ///
    /// Describes a cycle-limit overrun or a watchdog deadlock, as
    /// `Machine::run` would report them.
    pub fn run(&mut self, max_cycles: u64, clock: &mut Clock) -> Result<RunResult, String> {
        let mut last_retired = self.total_retired();
        let mut last_progress = self.now;
        let mut cpt_stats = Stats::new();
        let cpt_occ = cpt_stats.hist_id("cpt.occupancy");
        let mut bufs = Buffers::default();
        while !self.all_quiesced() {
            if self.now.raw() >= max_cycles {
                return Err(format!("cycle limit {max_cycles} reached"));
            }
            self.tick(clock, &mut bufs);
            let retired = self.total_retired();
            if retired != last_retired {
                last_retired = retired;
                last_progress = self.now;
            } else if self.now.since(last_progress) > WATCHDOG_CYCLES {
                return Err(format!(
                    "no retirement progress by cycle {} ({retired} retired)",
                    self.now.raw()
                ));
            }
            if self.now.raw().is_multiple_of(CPT_SAMPLE_PERIOD) {
                for core in &self.cores {
                    cpt_stats.sample_id(cpt_occ, core.governor().cpt().occupancy() as u64);
                }
            }
        }
        clock.mark(Layer::Loop, 1);
        for core in &self.cores {
            cpt_stats.sample_id(cpt_occ, core.governor().cpt().occupancy() as u64);
        }
        if let Some(obs) = self.observer.as_mut() {
            let snapshot = MachineSnapshot {
                cores: self.cores.iter().map(Core::check_snapshot).collect(),
            };
            obs.on_snapshot(self.now, &snapshot);
            obs.on_run_end(self.now);
            clock.mark(Layer::VerifyObserver, 2);
        }
        let result = self.result_with(cpt_stats);
        clock.mark(Layer::Loop, 1);
        Ok(result)
    }

    /// One naive cycle, in `Machine::tick`'s order, stamped once per
    /// phase.
    fn tick(&mut self, clock: &mut Clock, bufs: &mut Buffers) {
        let now = self.now;
        clock.mark(Layer::Loop, 1);
        bufs.delivered.clear();
        self.noc.deliver_into(now, &mut bufs.delivered);
        clock.mark(Layer::NocDeliver, 1);
        bufs.slice_bound.clear();
        let mut handled = 0;
        for (_, dst, msg) in bufs.delivered.drain(..) {
            match dst {
                NodeId::Core(c) => {
                    self.cores[c.index()].handle_msg(msg, now, &mut self.image);
                    handled += 1;
                }
                NodeId::Slice(s) => bufs.slice_bound.push((s, msg)),
            }
        }
        clock.mark(Layer::HandleMsg, handled);
        {
            let pins = Pins(&self.cores);
            let handled = bufs.slice_bound.len() as u64;
            for (s, msg) in bufs.slice_bound.drain(..) {
                self.slices[s].handle(msg, now, &pins);
            }
            clock.mark(Layer::DirHandle, handled);
            for slice in &mut self.slices {
                slice.tick(now, &pins);
            }
            clock.mark(Layer::DirTick, self.slices.len() as u64);
        }
        for core in &mut self.cores {
            core.tick(now, &mut self.image);
        }
        clock.mark(Layer::CoreTick, self.cores.len() as u64);
        // Drain every outbox first, then send in the machine's order:
        // cores, then slices, each in outbox order. Draining touches no
        // NoC state, so the send sequence is the machine's exactly.
        bufs.sends.clear();
        for (i, core) in self.cores.iter_mut().enumerate() {
            core.drain_outbox_into(&mut bufs.outbox);
            let src = NodeId::Core(CoreId(i));
            bufs.sends
                .extend(bufs.outbox.drain(..).map(|(dst, msg)| (src, dst, msg)));
        }
        for (i, slice) in self.slices.iter_mut().enumerate() {
            slice.drain_outbox_into(&mut bufs.outbox);
            let src = NodeId::Slice(i);
            bufs.sends
                .extend(bufs.outbox.drain(..).map(|(dst, msg)| (src, dst, msg)));
        }
        clock.mark(
            Layer::OutboxDrain,
            (self.cores.len() + self.slices.len()) as u64,
        );
        let sent = bufs.sends.len() as u64;
        for (src, dst, msg) in bufs.sends.drain(..) {
            self.noc.send(now, src, dst, msg);
        }
        clock.mark(Layer::NocSend, sent);
        if self.cfg.verify.enabled {
            self.drain_checks(now, clock, &mut bufs.checks);
        }
        self.now += 1;
    }

    /// `Machine::drain_checks`: drain every component's check events,
    /// then feed the observer the batch and, on the snapshot cadence, a
    /// whole-machine snapshot.
    fn drain_checks(&mut self, now: Cycle, clock: &mut Clock, buf: &mut Vec<CheckEvent>) {
        buf.clear();
        for core in &mut self.cores {
            core.drain_check_events(buf);
        }
        for slice in &mut self.slices {
            slice.drain_check_events(buf);
        }
        clock.mark(
            Layer::VerifyDrain,
            (self.cores.len() + self.slices.len()) as u64,
        );
        if let Some(obs) = self.observer.as_mut() {
            let mut calls = 0;
            if !buf.is_empty() {
                obs.on_events(now, buf);
                calls += 1;
            }
            if now.raw() >= self.next_snapshot {
                let period = self.cfg.verify.snapshot_period.max(1);
                while self.next_snapshot <= now.raw() {
                    self.next_snapshot += period;
                }
                let snapshot = MachineSnapshot {
                    cores: self.cores.iter().map(Core::check_snapshot).collect(),
                };
                obs.on_snapshot(now, &snapshot);
                calls += 1;
            }
            clock.mark(Layer::VerifyObserver, calls);
        }
    }

    /// `Machine::result_with`: merge every component's statistics in the
    /// machine's order.
    fn result_with(&self, extra: Stats) -> RunResult {
        let mut stats = extra;
        for core in &self.cores {
            stats.merge(core.stats());
            stats.merge(core.governor().stats());
            stats.add(
                "cpt.insert_attempts",
                core.governor().cpt().insert_attempts(),
            );
            stats.add("cpt.overflows", core.governor().cpt().overflows());
            stats.sample("cpt.peak", core.governor().cpt().peak_occupancy() as u64);
        }
        for slice in &self.slices {
            stats.merge(slice.stats());
        }
        stats.add("noc.messages", self.noc.messages_sent());
        stats.add("noc.hops", self.noc.hops_traversed());
        RunResult {
            cycles: self.now.raw(),
            retired_per_core: self.cores.iter().map(Core::retired).collect(),
            stats,
            trace: None,
        }
    }
}
