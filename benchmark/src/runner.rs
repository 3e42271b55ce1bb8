//! The four workloads, the timed (untraced) run, and the traced run.

use crate::golden;
use crate::metrics::{p99_interpolated, peak_rss_mib, Summary};
use crate::traced::{run_traced, Layers, TracedRun};
use microbank_core::stats::DramStats;
use microbank_sim::experiment::{base_cfg, DEGREES};
use microbank_sim::simulator::{
    golden_fingerprint, run_many_checked, try_run, SimConfig, SimResult,
};
use microbank_sim::SimError;
use microbank_workloads::spec::SpecGroup;
use microbank_workloads::suite::Workload;
use std::time::Instant;

/// The paper's default workload seed.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// Set-up probes: runs of the design configuration with a one-cycle
/// window, made before the timed runs. `setup_s` is the median set-up time
/// of the last `SETUP_PROBES`; the first `SETUP_WARMUP` let the allocator
/// settle (set-up time falls about 8× over the first eight set-ups of a
/// process while freed cache arrays start being reused).
const SETUP_WARMUP: usize = 10;
const SETUP_PROBES: usize = 20;

/// A `golden_fingerprint`: committed instructions, the DRAM counters, the
/// read-latency histogram's count and sum, and a per-core checksum.
pub type Fingerprint = [u64; 13];

/// Paper figure anchors for `mcf-grid`: Fig. 8a peak relative IPC and
/// Fig. 9a relative 1/EDP at (nW, nB) = (8, 16), both against (1, 1).
const FIG8A_PEAK_REL_IPC: f64 = 1.55;
const FIG9A_INV_EDP_8X16: f64 = 4.85;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    MixHigh,
    SpecLow,
    Radix,
    McfGrid,
}

impl Bench {
    pub const ALL: [Bench; 4] = [Bench::MixHigh, Bench::SpecLow, Bench::Radix, Bench::McfGrid];

    pub fn name(self) -> &'static str {
        match self {
            Bench::MixHigh => "mixhigh-16x16",
            Bench::SpecLow => "speclow-16x16",
            Bench::Radix => "radix-16x16",
            Bench::McfGrid => "mcf-grid",
        }
    }

    pub fn parse(s: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == s)
    }

    /// The simulator configurations one result of this workload is made
    /// of, pinned to one thread per run and the default time skip. `quick`
    /// shrinks the window to `SimConfig::quick` (tests).
    pub fn configs(self, seed: u64, quick: bool) -> Vec<SimConfig> {
        let pin = |mut c: SimConfig| {
            c.seed = seed;
            c.threads = Some(1);
            c.time_skip = Some(true);
            c
        };
        // The paper-default platform (64 cores, 16 channels) for every
        // workload, SPEC groups included.
        let paper_16x16 = |w: Workload| {
            let mut c = SimConfig::paper_default(w);
            c.mem = c.mem.with_ubanks(16, 16);
            vec![pin(if quick { c.quick() } else { c })]
        };
        match self {
            Bench::MixHigh => paper_16x16(Workload::MixHigh),
            Bench::SpecLow => paper_16x16(Workload::SpecGroupAvg(SpecGroup::Low)),
            Bench::Radix => paper_16x16(Workload::Radix),
            // Fig. 8a/9a: row-major over nB, then nW, as `ubank_grid`.
            Bench::McfGrid => DEGREES
                .iter()
                .flat_map(|&nb| DEGREES.iter().map(move |&nw| (nw, nb)))
                .map(|(nw, nb)| {
                    let mut c = base_cfg(Workload::Spec("429.mcf"), quick);
                    c.mem = c.mem.with_ubanks(nw, nb);
                    pin(c)
                })
                .collect(),
        }
    }

    /// Index of the configuration whose modelled-design metrics (IPC,
    /// latency, row misses, EDP) the workload reports: the (16,16) cell.
    pub fn design_cell(self) -> usize {
        match self {
            Bench::McfGrid => DEGREES.len() * DEGREES.len() - 1,
            _ => 0,
        }
    }

    /// Sweep workers a result runs on: the grid goes through
    /// `run_many_checked` on every host CPU, the rest run alone.
    pub fn workers(self) -> usize {
        match self {
            Bench::McfGrid => nproc(),
            _ => 1,
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Run one configuration through `try_run` under a panic net, so a panic
/// counts as a failed run (as `run_many_checked` does for each slot).
pub fn run_one(cfg: &SimConfig) -> Result<SimResult, SimError> {
    std::panic::catch_unwind(|| try_run(cfg)).unwrap_or_else(|p| {
        Err(SimError::Panic {
            message: panic_message(p),
        })
    })
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "run panicked".into())
}

/// Run one result of `bench`: the grid through `run_many_checked`, a
/// single configuration through [`run_one`].
pub fn run_set(bench: Bench, cfgs: &[SimConfig]) -> Vec<Result<SimResult, SimError>> {
    match bench {
        Bench::McfGrid => run_many_checked(cfgs),
        _ => cfgs.iter().map(run_one).collect(),
    }
}

/// Correctness gate for the results of a workload: every run must succeed
/// and match its reference fingerprint. With no stored reference for the
/// seed, the first result seen becomes the reference, so all later runs
/// must agree with it.
pub struct Gate {
    reference: Option<Vec<Fingerprint>>,
    pub failures: Vec<String>,
}

impl Gate {
    pub fn new(reference: Option<Vec<Fingerprint>>) -> Self {
        Gate {
            reference,
            failures: Vec::new(),
        }
    }

    /// Gate for `bench` at `seed`: the stored reference when there is one.
    pub fn for_seed(bench: Bench, seed: u64) -> Self {
        Gate::new(golden::reference(bench, seed).map(|r| r.to_vec()))
    }

    /// Check one result (one entry per configuration); returns the number
    /// of failed runs, with a message per failure added to `failures`.
    pub fn check(&mut self, what: &str, results: &[Result<SimResult, SimError>]) -> u64 {
        let prints: Vec<Option<Fingerprint>> = results
            .iter()
            .map(|r| r.as_ref().ok().map(golden_fingerprint))
            .collect();
        if self.reference.is_none() && prints.iter().all(Option::is_some) {
            self.reference = Some(prints.iter().flatten().copied().collect());
        }
        let mut failed = 0;
        for (i, (r, p)) in results.iter().zip(&prints).enumerate() {
            let problem = match (r, p, &self.reference) {
                (Err(e), _, _) => Some(format!("error: {e}")),
                (_, Some(p), Some(want)) if want.get(i) != Some(p) => Some(format!(
                    "fingerprint {p:?} differs from reference {:?}",
                    want.get(i)
                )),
                _ => None,
            };
            if let Some(problem) = problem {
                failed += 1;
                self.failures.push(format!("{what} run {i}: {problem}"));
            }
        }
        failed
    }
}

/// What a run of the benchmark measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<(&'static str, Summary)>,
    /// Informational lines for the report header.
    pub notes: Vec<String>,
}

fn drive_secs(r: &SimResult) -> f64 {
    r.profile.warmup_secs + r.profile.measure_secs
}

/// The timed run (`--trace 0`): repeat the workload for `seconds` and
/// report every end-to-end metric.
pub fn measure(bench: Bench, seed: u64, seconds: f64, quick: bool, mut gate: Gate) -> Outcome {
    let cfgs = bench.configs(seed, quick);
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut setup = Vec::new();

    let mut probe = cfgs[bench.design_cell()].clone();
    probe.warmup_cycles = 0;
    probe.measure_cycles = 1;
    for i in 0..SETUP_WARMUP + SETUP_PROBES {
        attempted += 1;
        match run_one(&probe) {
            Ok(r) if i >= SETUP_WARMUP => setup.push(r.profile.setup_secs),
            Ok(_) => {}
            Err(e) => {
                failed += 1;
                gate.failures.push(format!("setup probe {i}: error: {e}"));
            }
        }
    }

    let (mut mips, mut mcycles, mut figure) = (Vec::new(), Vec::new(), Vec::new());
    let mut design: Option<SimResult> = None;
    let mut anchors = None;
    let start = Instant::now();
    let mut reps = 0;
    while reps == 0 || start.elapsed().as_secs_f64() < seconds {
        reps += 1;
        let t = Instant::now();
        let results = run_set(bench, &cfgs);
        let wall = t.elapsed().as_secs_f64();
        attempted += results.len() as u64;
        failed += gate.check(&format!("rep {reps}"), &results);
        let ok: Vec<&SimResult> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
        if ok.len() != results.len() {
            continue;
        }
        figure.push(wall);
        let drive: f64 = ok.iter().map(|r| drive_secs(r)).sum();
        let measure: f64 = ok.iter().map(|r| r.profile.measure_secs).sum();
        let cycles: u64 = cfgs
            .iter()
            .map(|c| c.warmup_cycles + c.measure_cycles)
            .sum();
        let committed: u64 = ok.iter().map(|r| r.committed).sum();
        mcycles.push(cycles as f64 / drive / 1e6);
        mips.push(committed as f64 / measure / 1e6);
        if design.is_none() {
            design = Some(ok[bench.design_cell()].clone());
            if bench == Bench::McfGrid {
                anchors = Some(grid_anchors(&ok));
            }
        }
    }
    let mut notes = vec![format!(
        "timed reps: {reps} in {:.2} s",
        start.elapsed().as_secs_f64()
    )];
    if let Some((peak, inv_edp)) = anchors {
        notes.push(anchor_note(
            "fig8a peak relative IPC",
            peak,
            FIG8A_PEAK_REL_IPC,
        ));
        notes.push(anchor_note(
            "fig9a 1/EDP at (8,16)",
            inv_edp,
            FIG9A_INV_EDP_8X16,
        ));
    }
    let rss = peak_rss_mib();
    if rss.is_none() {
        failed += 1;
        gate.failures
            .push("peak RSS: /proc/self/status has no VmHWM".into());
    }
    let (Some(d), Some(rss), 0) = (design, rss, failed) else {
        return Outcome {
            attempted,
            failed: failed.max(1),
            failures: gate.failures,
            metrics: Vec::new(),
            notes,
        };
    };
    let metrics = vec![
        ("sim_mips", Summary::of(&mips)),
        ("sim_mcycles_per_s", Summary::of(&mcycles)),
        ("figure_s", Summary::of(&figure)),
        ("setup_s", Summary::of(&setup)),
        ("peak_rss_mib", Summary::exact(rss)),
        ("ipc", Summary::exact(d.ipc)),
        ("read_latency_mean_cyc", Summary::exact(d.mean_read_latency)),
        (
            "read_latency_p99_cyc",
            Summary::exact(p99_interpolated(&d.read_latency_hist)),
        ),
        ("row_miss_rate", Summary::exact(1.0 - d.row_hit_rate)),
        ("edp", Summary::exact(d.edp_per_work())),
    ];
    Outcome {
        attempted,
        failed: 0,
        failures: gate.failures,
        metrics,
        notes,
    }
}

/// (Fig. 8a peak relative IPC, Fig. 9a relative 1/EDP at (8,16)) of a grid.
fn grid_anchors(grid: &[&SimResult]) -> (f64, f64) {
    let base = grid[0];
    let peak = grid.iter().map(|r| r.ipc / base.ipc).fold(0.0, f64::max);
    // Row nB = 16 (index 4), column nW = 8 (index 3).
    let inv_edp = grid[4 * DEGREES.len() + 3].inverse_edp_vs(base);
    (peak, inv_edp)
}

fn anchor_note(what: &str, ours: f64, paper: f64) -> String {
    format!(
        "anchor {what}: ours {ours:.4}, paper {paper}, relative error {:+.1}%",
        100.0 * (ours - paper) / paper
    )
}

/// Run the traced drive over `cfgs` on `workers` threads, in order; a
/// panicking run reports `SimError::Panic` in its slot.
fn traced_set(cfgs: &[SimConfig], workers: usize) -> Vec<Result<TracedRun, SimError>> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots = std::sync::Mutex::new(vec![None; cfgs.len()]);
    std::thread::scope(|s| {
        for _ in 0..workers.clamp(1, cfgs.len()) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(cfg) = cfgs.get(i) else { break };
                let run =
                    std::panic::catch_unwind(|| run_traced(cfg)).map_err(|p| SimError::Panic {
                        message: panic_message(p),
                    });
                slots.lock().expect("no slot writer panics")[i] = Some(run);
            });
        }
    });
    let slots = slots.into_inner().expect("no slot writer panics");
    slots
        .into_iter()
        .map(|r| r.expect("every slot ran"))
        .collect()
}

/// The traced run (`--trace 1`): run the workload untraced with the
/// program's own spans, then twice each with time skip off and on, then
/// on the traced drive; check that every pass produced the same
/// simulated result, and report every per-layer metric.
pub fn trace(bench: Bench, seed: u64, quick: bool, mut gate: Gate) -> Outcome {
    let cfgs = bench.configs(seed, quick);
    let workers = bench.workers();
    let with = |f: &dyn Fn(SimConfig) -> SimConfig| cfgs.iter().cloned().map(f).collect::<Vec<_>>();
    let no_skip = with(&|c| c.with_time_skip(false));
    let mut failed = 0;
    let mut pass = |label: &str, cfgs: &[SimConfig]| {
        let t = Instant::now();
        let results = run_set(bench, cfgs);
        let wall = t.elapsed().as_secs_f64();
        failed += gate.check(label, &results);
        let ok: Result<Vec<SimResult>, _> = results.into_iter().collect();
        ok.ok().map(|rs| (rs, wall))
    };
    // The spans pass doubles as the process's warm-up; time skip off and
    // on then alternate twice, so neither side always runs first.
    let spans = pass("spans on", &with(&|c| c.with_spans(true)));
    let off1 = pass("time skip off", &no_skip);
    let on1 = pass("time skip on", &cfgs);
    let off2 = pass("time skip off", &no_skip);
    let on2 = pass("time skip on", &cfgs);

    let traced = traced_set(&no_skip, workers);
    let as_results: Vec<_> = traced.iter().map(|t| t.clone().map(|t| t.result)).collect();
    failed += gate.check("traced drive", &as_results);
    let traced: Result<Vec<TracedRun>, _> = traced.into_iter().collect();
    let attempted = 6 * cfgs.len() as u64;
    let (Some(spans), Some(off1), Some(on1), Some(off2), Some(on2), Ok(traced), 0) =
        (spans, off1, on1, off2, on2, traced, failed)
    else {
        return Outcome {
            attempted,
            failed: failed.max(1),
            failures: gate.failures,
            metrics: Vec::new(),
            notes: Vec::new(),
        };
    };

    let drive = |rs: &[SimResult]| rs.iter().map(drive_secs).sum::<f64>();
    let drive_on = drive(&on1.0) + drive(&on2.0);
    let drive_off = drive(&off1.0) + drive(&off2.0);
    let wall_on = on1.1 + on2.1;
    let ctrl_tick: f64 = spans
        .0
        .iter()
        .flat_map(|r| &r.profile.spans)
        .filter(|s| s.name == "ctrl-tick")
        .map(|s| s.secs)
        .sum();
    let mut l = Layers::default();
    let mut dram = DramStats::default();
    for t in &traced {
        l.add(&t.layers);
        dram.merge(&t.result.dram);
    }
    let d = &traced[bench.design_cell()];
    let channels: usize = cfgs.iter().map(|c| c.mem.channels).sum();
    let window: u64 = cfgs.iter().map(|c| c.measure_cycles).max().unwrap_or(1);
    let secs = |ns: u64| ns as f64 * 1e-9;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let dr = &d.result;
    let metrics: Vec<(&'static str, f64)> = vec![
        ("workloads.instrs", l.instrs as f64),
        ("workloads.next_s", secs(l.next_ns)),
        ("cpu.tick_calls", l.cpu_ticks as f64),
        ("cpu.tick_s", secs(l.cpu_tick_ns)),
        ("cpu.fills", l.fills as f64),
        ("cpu.fill_s", secs(l.fill_ns)),
        ("cpu.l1_hit_rate", d.l1_hit_rate),
        ("cpu.l2_hit_rate", d.l2_hit_rate),
        (
            "cpu.forwards",
            traced.iter().map(|t| t.forwards).sum::<u64>() as f64,
        ),
        (
            "cpu.upgrades",
            traced.iter().map(|t| t.upgrades).sum::<u64>() as f64,
        ),
        ("ctrl.tick_calls", l.ctrl_ticks as f64),
        ("ctrl.tick_s", secs(l.ctrl_tick_ns)),
        ("ctrl.cmds_per_tick", ratio(l.ctrl_cmds, l.ctrl_ticks)),
        ("ctrl.enqueues", l.enqueues as f64),
        ("ctrl.enqueue_s", secs(l.enqueue_ns)),
        (
            "ctrl.enqueue_reject_ratio",
            ratio(l.enqueue_attempts - l.enqueues, l.enqueue_attempts),
        ),
        ("ctrl.completions", l.completions as f64),
        ("ctrl.queue_occupancy_mean", dr.mean_queue_occupancy),
        ("core.decodes", l.decodes as f64),
        ("core.decode_s", secs(l.decode_ns)),
        ("core.activates", dram.activates as f64),
        ("core.precharges", dram.precharges as f64),
        ("core.reads", dram.reads as f64),
        ("core.writes", dram.writes as f64),
        ("core.refreshes", dram.refreshes as f64),
        ("core.row_conflicts", dram.row_conflicts as f64),
        (
            "core.data_bus_util",
            dram.data_bus_busy as f64 / (window * channels as u64) as f64,
        ),
        ("energy.integrate_s", secs(l.integrate_ns)),
        (
            "energy.nj_per_read",
            dr.mem_energy.total_nj() / dr.dram.reads.max(1) as f64,
        ),
        ("sim.drive_self_s", secs(l.drive_self_ns())),
        ("sim.deliveries", l.deliveries as f64),
        ("sim.ctrl_tick_share", ctrl_tick / drive(&spans.0)),
        ("sim.skip_speedup", drive_off / drive_on),
        (
            "sim.sweep_efficiency",
            drive_on / (wall_on * workers as f64),
        ),
        ("sim.trace_overhead", secs(l.drive_ns) / (drive_off / 2.0)),
    ];
    let notes = vec![
        format!(
            "traced drive == try_run(time_skip off) == try_run(time_skip on) on {} run(s)",
            cfgs.len()
        ),
        format!(
            "layer times are summed over {} run(s) on {workers} worker(s); workloads.next_s times 1 call in {}",
            cfgs.len(),
            crate::traced::NEXT_SAMPLE
        ),
    ];
    Outcome {
        attempted,
        failed,
        failures: gate.failures,
        metrics: metrics
            .into_iter()
            .map(|(n, v)| (n, Summary::exact(v)))
            .collect(),
        notes,
    }
}
