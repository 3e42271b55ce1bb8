//! The traced drive: the simulator's per-cycle drive loop rebuilt from
//! public calls, with a clock and a counter around every call into a layer.
//!
//! It reproduces `try_run(cfg.with_time_skip(false))` exactly — committed
//! instructions, every DRAM counter, the read-latency histogram — so its
//! per-layer split describes the run the program performs, not an
//! approximation of it. The runner checks that equality on every traced
//! run. Only the configurations the benchmark uses are supported:
//! telemetry, faults and QoS off (all three are off in the figure configs).

use microbank_core::hist::Histogram;
use microbank_core::request::{MemRequest, ReqKind, TenantId};
use microbank_core::stats::DramStats;
use microbank_core::Cycle;
use microbank_cpu::instr::{Instr, InstrSource};
use microbank_cpu::system::{CmpSystem, MemPort, SubmittedReq};
use microbank_ctrl::controller::{Completion, MemoryController};
use microbank_energy::corepower::CorePowerModel;
use microbank_energy::energy::EnergyModel;
use microbank_energy::params::EnergyParams;
use microbank_energy::power::PowerIntegrator;
use microbank_sim::simulator::{DriveMode, RunProfile, SequentialReason, SimConfig, SimResult};
use microbank_workloads::suite::build_sources;
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::rc::Rc;
use std::sync::OnceLock;
use std::time::Instant;

/// `next_instr` is timed on one call in this many (and every call is
/// counted): it runs tens of millions of times per run, for a few
/// nanoseconds each, so timing every call would mostly measure the clock.
pub const NEXT_SAMPLE: u64 = 16;

/// Host time (ns) and call counts at each layer boundary, summed over the
/// whole run (warmup plus measurement). Self times exclude the nested
/// layer calls that are themselves timed.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// `InstrSource::next_instr` calls, and their estimated time.
    pub instrs: u64,
    pub next_ns: u64,
    /// `CmpSystem::tick` / `on_fill` calls and self time.
    pub cpu_ticks: u64,
    pub cpu_tick_ns: u64,
    pub fills: u64,
    pub fill_ns: u64,
    /// `MemoryController::tick` + `take_completions`.
    pub ctrl_ticks: u64,
    pub ctrl_tick_ns: u64,
    /// DRAM commands the channels issued inside those ticks.
    pub ctrl_cmds: u64,
    /// `MemoryController::enqueue` attempts, accepted, and time.
    pub enqueue_attempts: u64,
    pub enqueues: u64,
    pub enqueue_ns: u64,
    pub completions: u64,
    /// `AddressMap::decode` calls and time.
    pub decodes: u64,
    pub decode_ns: u64,
    /// `PowerIntegrator::integrate` time.
    pub integrate_ns: u64,
    /// Wall time of the whole submit path (decode + enqueue + the
    /// port's own bookkeeping, clock reads included), subtracted from
    /// the CPU's self time.
    pub port_ns: u64,
    /// Fill deliveries made to the CMP.
    pub deliveries: u64,
    /// Wall time of the drive loop.
    pub drive_ns: u64,
}

impl Layers {
    pub fn add(&mut self, o: &Layers) {
        self.instrs += o.instrs;
        self.next_ns += o.next_ns;
        self.cpu_ticks += o.cpu_ticks;
        self.cpu_tick_ns += o.cpu_tick_ns;
        self.fills += o.fills;
        self.fill_ns += o.fill_ns;
        self.ctrl_ticks += o.ctrl_ticks;
        self.ctrl_tick_ns += o.ctrl_tick_ns;
        self.ctrl_cmds += o.ctrl_cmds;
        self.enqueue_attempts += o.enqueue_attempts;
        self.enqueues += o.enqueues;
        self.enqueue_ns += o.enqueue_ns;
        self.completions += o.completions;
        self.decodes += o.decodes;
        self.decode_ns += o.decode_ns;
        self.integrate_ns += o.integrate_ns;
        self.port_ns += o.port_ns;
        self.deliveries += o.deliveries;
        self.drive_ns += o.drive_ns;
    }

    /// Drive time not spent inside any timed layer call: the delivery
    /// heap, latency bookkeeping, the loop itself, and the tracing's own
    /// clock reads.
    pub fn drive_self_ns(&self) -> u64 {
        let layers = self.next_ns
            + self.cpu_tick_ns
            + self.fill_ns
            + self.ctrl_tick_ns
            + self.enqueue_ns
            + self.decode_ns;
        self.drive_ns.saturating_sub(layers)
    }
}

/// A traced run: the program's result, rebuilt, plus its layer split and
/// the CPU-side statistics only the live `CmpSystem` exposes.
#[derive(Debug, Clone)]
pub struct TracedRun {
    pub result: SimResult,
    pub layers: Layers,
    pub l1_hit_rate: f64,
    pub l2_hit_rate: f64,
    pub forwards: u64,
    pub upgrades: u64,
}

/// Host cost of one clock read: the median of many empty timed
/// intervals, measured once per process. It is taken off every timed
/// interval, and two reads are charged per timed call nested inside a
/// parent's interval, so that layer times estimate the calls themselves
/// rather than the probes around them.
pub fn clock_read_ns() -> u64 {
    static COST: OnceLock<u64> = OnceLock::new();
    *COST.get_or_init(|| {
        let mut v: Vec<u64> = (0..20_001)
            .map(|_| Instant::now().elapsed().as_nanos() as u64)
            .collect();
        v.sort_unstable();
        v[v.len() / 2]
    })
}

/// Nanoseconds since `t`, less the cost of the read that ended it.
fn ns_since(t: Instant) -> u64 {
    (t.elapsed().as_nanos() as u64).saturating_sub(clock_read_ns())
}

/// Counts (and samples the time of) `next_instr` calls; shared by every
/// core's source of one run.
#[derive(Default)]
struct NextCounter {
    calls: Cell<u64>,
    sampled: Cell<u64>,
    sampled_ns: Cell<u64>,
}

struct CountingSource<S> {
    inner: S,
    counter: Rc<NextCounter>,
}

impl<S: InstrSource> InstrSource for CountingSource<S> {
    fn next_instr(&mut self) -> Instr {
        let c = &self.counter;
        let n = c.calls.get();
        c.calls.set(n + 1);
        if n.is_multiple_of(NEXT_SAMPLE) {
            let t = Instant::now();
            let i = self.inner.next_instr();
            c.sampled_ns.set(c.sampled_ns.get() + ns_since(t));
            c.sampled.set(c.sampled.get() + 1);
            i
        } else {
            self.inner.next_instr()
        }
    }

    fn tenant(&self) -> TenantId {
        self.inner.tenant()
    }
}

impl NextCounter {
    /// Time of every call so far, scaled up from the sampled ones.
    fn estimated_ns(&self) -> u64 {
        let sampled = self.sampled.get().max(1);
        (self.sampled_ns.get() as u128 * self.calls.get() as u128 / sampled as u128) as u64
    }

    /// Wall time the calls took inside their caller: their own time plus
    /// the clock reads around the sampled ones.
    fn wall_ns(&self) -> u64 {
        self.estimated_ns() + 2 * self.sampled.get() * clock_read_ns()
    }
}

/// The memory port the CMP submits through: decode, enqueue, and the
/// enqueue-time record read-latency accounting needs.
struct TracedPort<'a> {
    ctrls: &'a mut [MemoryController],
    enqueue_time: &'a mut HashMap<u64, Cycle>,
    layers: &'a mut Layers,
}

impl MemPort for TracedPort<'_> {
    fn submit(&mut self, req: SubmittedReq, now: Cycle) -> bool {
        let t0 = Instant::now();
        let loc = self.ctrls[0].map().decode(req.addr);
        let t1 = Instant::now();
        let kind = if req.is_write {
            ReqKind::Write
        } else {
            ReqKind::Read
        };
        let mut r = MemRequest::new(req.id, req.addr, kind, req.thread, now);
        r.loc = loc;
        r.tenant = req.tenant;
        let ok = self.ctrls[loc.channel as usize].enqueue(r, now);
        let t2 = Instant::now();
        if ok {
            self.enqueue_time.insert(req.id, now);
        }
        let l = &mut *self.layers;
        l.decodes += 1;
        let c = clock_read_ns();
        l.decode_ns += ((t1 - t0).as_nanos() as u64).saturating_sub(c);
        l.enqueue_attempts += 1;
        l.enqueues += ok as u64;
        l.enqueue_ns += ((t2 - t1).as_nanos() as u64).saturating_sub(c);
        // The caller's interval also holds the reads at both ends.
        l.port_ns += ns_since(t0) + 2 * c;
        ok
    }
}

fn merged_stats(ctrls: &[MemoryController]) -> DramStats {
    let mut d = DramStats::default();
    for c in ctrls {
        d.merge(&c.channel.stats);
    }
    d
}

fn commands(s: &DramStats) -> u64 {
    s.activates + s.precharges + s.reads + s.writes + s.refreshes + s.scrubs
}

/// Field-wise `end - start` over the DRAM counters the result reports.
fn window(end: &DramStats, start: &DramStats) -> DramStats {
    DramStats {
        activates: end.activates - start.activates,
        precharges: end.precharges - start.precharges,
        reads: end.reads - start.reads,
        writes: end.writes - start.writes,
        refreshes: end.refreshes - start.refreshes,
        scrubs: end.scrubs - start.scrubs,
        data_bus_busy: end.data_bus_busy - start.data_bus_busy,
        row_hits: end.row_hits - start.row_hits,
        row_closed: end.row_closed - start.row_closed,
        row_conflicts: end.row_conflicts - start.row_conflicts,
        powerdown_rank_cycles: end.powerdown_rank_cycles - start.powerdown_rank_cycles,
        powerdown_entries: end.powerdown_entries - start.powerdown_entries,
    }
}

/// Run `cfg` on the traced per-cycle drive.
pub fn run_traced(cfg: &SimConfig) -> TracedRun {
    assert!(
        cfg.telemetry.is_none() && cfg.faults.is_none() && cfg.qos.is_none(),
        "the traced drive covers the figure configs only (telemetry, faults and QoS off)"
    );
    let t_setup = Instant::now();
    let counter = Rc::new(NextCounter::default());
    let sources: Vec<_> = build_sources(
        cfg.workload,
        cfg.cmp.cores,
        cfg.mem.capacity_bytes(),
        cfg.seed,
    )
    .into_iter()
    .map(|inner| CountingSource {
        inner,
        counter: Rc::clone(&counter),
    })
    .collect();
    let mut cmp = CmpSystem::new(cfg.cmp, sources);
    let mut ctrls: Vec<MemoryController> = (0..cfg.mem.channels)
        .map(|_| MemoryController::new(&cfg.mem, cfg.scheduler, cfg.policy, cfg.cmp.cores))
        .collect();
    let energy = EnergyModel::new(
        EnergyParams::for_interface(cfg.mem.interface),
        cfg.mem.ubank,
    )
    .with_variant(cfg.mem.variant);
    let integrator =
        PowerIntegrator::new(energy, cfg.mem.channels).with_ranks(cfg.mem.ranks_per_channel);
    let setup_secs = t_setup.elapsed().as_secs_f64();

    let mut l = Layers::default();
    let total = cfg.warmup_cycles + cfg.measure_cycles;
    let noc = cfg.cmp.noc_latency;
    let mut deliveries: BinaryHeap<Reverse<(Cycle, u64)>> = BinaryHeap::new();
    let mut completions: Vec<Completion> = Vec::new();
    let mut enqueue_time: HashMap<u64, Cycle> = HashMap::new();
    let mut hist = Histogram::new();
    let mut latency_sum = 0u64;
    let mut committed_at_warmup = 0u64;
    let mut per_core_at_warmup = vec![0u64; cfg.cmp.cores];
    let mut dram_at_warmup = DramStats::default();
    let mut warmup_secs = 0.0;

    let t_drive = Instant::now();
    for now in 0..total {
        if now == cfg.warmup_cycles {
            warmup_secs = t_drive.elapsed().as_secs_f64();
            committed_at_warmup = cmp.total_committed();
            for (i, c) in per_core_at_warmup.iter_mut().enumerate() {
                *c = cmp.core(i).stats.committed;
            }
            // Rows open at the boundary were activated in warmup but are
            // precharged inside the window: charge those activates to the
            // window, as the program does.
            let mut d = merged_stats(&ctrls);
            for c in &ctrls {
                d.activates -= c.channel.open_ubanks().len() as u64;
            }
            dram_at_warmup = d;
        }
        if now.is_multiple_of(cfg.ctrl_stride) {
            for c in ctrls.iter_mut() {
                let before = commands(&c.channel.stats);
                let t = Instant::now();
                c.tick(now);
                c.take_completions(&mut completions);
                l.ctrl_tick_ns += ns_since(t);
                l.ctrl_ticks += 1;
                l.ctrl_cmds += commands(&c.channel.stats) - before;
            }
            l.completions += completions.len() as u64;
            for comp in completions.drain(..) {
                let enqueued = enqueue_time.remove(&comp.id);
                if comp.is_write {
                    continue;
                }
                if let Some(t0) = enqueued.filter(|_| now >= cfg.warmup_cycles) {
                    // Latency accrued before the window opened is warmup's.
                    let lat = comp.at.saturating_sub(t0.max(cfg.warmup_cycles));
                    latency_sum += lat;
                    hist.record(lat);
                }
                deliveries.push(Reverse((comp.at.max(now) + noc, comp.id)));
            }
        }
        while let Some(&Reverse((at, id))) = deliveries.peek() {
            if at > now {
                break;
            }
            deliveries.pop();
            l.deliveries += 1;
            let nested = l.port_ns;
            let t = Instant::now();
            let mut port = TracedPort {
                ctrls: &mut ctrls,
                enqueue_time: &mut enqueue_time,
                layers: &mut l,
            };
            cmp.on_fill(id, now, &mut port);
            let dt = ns_since(t);
            l.fills += 1;
            l.fill_ns += dt.saturating_sub(l.port_ns - nested);
        }
        let nested = l.port_ns + counter.wall_ns();
        let t = Instant::now();
        let mut port = TracedPort {
            ctrls: &mut ctrls,
            enqueue_time: &mut enqueue_time,
            layers: &mut l,
        };
        cmp.tick(now, &mut port);
        let dt = ns_since(t);
        l.cpu_ticks += 1;
        l.cpu_tick_ns += dt.saturating_sub(l.port_ns + counter.wall_ns() - nested);
    }
    l.drive_ns = ns_since(t_drive);
    l.instrs = counter.calls.get();
    l.next_ns = counter.estimated_ns();
    let drive_secs = l.drive_ns as f64 * 1e-9;

    let committed = cmp.total_committed() - committed_at_warmup;
    let dram = window(&merged_stats(&ctrls), &dram_at_warmup);
    let t = Instant::now();
    let mem_energy = integrator.integrate(&dram, cfg.measure_cycles);
    l.integrate_ns = ns_since(t);
    let core_energy_nj =
        CorePowerModel::default().energy_nj(committed, cfg.measure_cycles, cfg.cmp.cores);
    let (correct, predictions) = ctrls.iter().fold((0, 0), |(c, p), ctrl| {
        (
            c + ctrl.stats.policy_stats.correct,
            p + ctrl.stats.policy_stats.predictions,
        )
    });
    let samples = hist.count();
    let result = SimResult {
        label: cfg.workload.label(),
        cycles: cfg.measure_cycles,
        committed,
        ipc: committed as f64 / cfg.measure_cycles as f64,
        dram,
        mem_energy,
        core_energy_nj,
        mapki: if committed == 0 {
            0.0
        } else {
            1000.0 * dram.columns() as f64 / committed as f64
        },
        row_hit_rate: dram.row_hit_rate(),
        policy_hit_rate: if predictions == 0 {
            0.0
        } else {
            correct as f64 / predictions as f64
        },
        mean_queue_occupancy: ctrls
            .iter()
            .map(|c| c.stats.mean_queue_occupancy())
            .sum::<f64>()
            / ctrls.len() as f64,
        mean_read_latency: if samples == 0 {
            0.0
        } else {
            latency_sum as f64 / samples as f64
        },
        read_latency_hist: hist,
        per_core_committed: (0..cfg.cmp.cores)
            .map(|i| cmp.core(i).stats.committed - per_core_at_warmup[i])
            .collect(),
        profile: RunProfile {
            setup_secs,
            warmup_secs,
            measure_secs: drive_secs - warmup_secs,
            total_secs: setup_secs + drive_secs,
            sim_mcycles_per_sec: total as f64 / drive_secs / 1e6,
            spans: Vec::new(),
        },
        reliability: None,
        qos: None,
        drive: DriveMode::Sequential {
            reason: SequentialReason::SingleThread,
        },
    };
    let stats = cmp.stats();
    TracedRun {
        result,
        layers: l,
        l1_hit_rate: cmp.l1_hit_rate(),
        l2_hit_rate: cmp.l2_hit_rate(),
        forwards: stats.forwards,
        upgrades: stats.upgrades,
    }
}
