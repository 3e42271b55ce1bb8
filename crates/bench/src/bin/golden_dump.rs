//! Regenerate the golden snapshot rows consumed by
//! `tests/integration_golden.rs`.
//!
//! Prints one Rust tuple literal per golden configuration: the
//! {scheduler} × {policy} × {μbank partition} cross, then the remaining
//! page policies under PAR-BS, then the structural device variants under
//! FR-FCFS/open-page. The hot-path refactors in the controller/simulator
//! are required to be *behavior-preserving*: after any such change this
//! dump must match the table committed in the test byte-for-byte.
//! Regenerate (and scrutinize the diff) only when a PR deliberately
//! changes simulated behavior.
//!
//! Usage: `golden_dump`

use microbank_core::variant::{DeviceVariant, SalpMode};
use microbank_ctrl::policy::PolicyKind;
use microbank_ctrl::predictor::PredictorKind;
use microbank_ctrl::scheduler::SchedulerKind;
use microbank_sim::simulator::{golden_fingerprint, run, SimConfig};
use microbank_workloads::suite::Workload;

fn main() {
    let schedulers = [
        ("frfcfs", SchedulerKind::FrFcfs),
        ("parbs", SchedulerKind::ParBs { marking_cap: 5 }),
    ];
    let policies = [
        ("open", PolicyKind::Open),
        ("close", PolicyKind::Close),
        ("pred", PolicyKind::Predictive(PredictorKind::Local)),
    ];
    let more_policies = [
        (
            "minopen200",
            PolicyKind::MinimalistOpen { window_cycles: 200 },
        ),
        ("global", PolicyKind::Predictive(PredictorKind::Global)),
        (
            "tournament",
            PolicyKind::Predictive(PredictorKind::Tournament),
        ),
        ("perfect", PolicyKind::Predictive(PredictorKind::Perfect)),
    ];
    let salp = |mode| DeviceVariant::Salp { subarrays: 8, mode };
    let sectored = |sectors_per_act| DeviceVariant::Sectored {
        sectors: 16,
        sectors_per_act,
    };
    let variants = [
        salp(SalpMode::Salp1),
        salp(SalpMode::Salp2),
        salp(SalpMode::Masa),
        sectored(8),
        sectored(2),
    ];
    let dump = |part: String, sname: &str, pname: &str, cfg: SimConfig| {
        let f = golden_fingerprint(&run(&cfg));
        println!("    (\"{part}\", \"{sname}\", \"{pname}\", {f:?}),");
    };
    let base = |sched: SchedulerKind, policy: PolicyKind| {
        let mut cfg = SimConfig::spec_single_channel(Workload::Spec("429.mcf")).quick();
        cfg.warmup_cycles = 10_000;
        cfg.measure_cycles = 30_000;
        cfg.scheduler = sched;
        cfg.policy = policy;
        cfg
    };
    for (nw, nb) in [(1usize, 1usize), (8, 8)] {
        for (sname, sched) in schedulers {
            for (pname, policy) in policies {
                let mut cfg = base(sched, policy);
                cfg.mem = cfg.mem.with_ubanks(nw, nb);
                dump(format!("{nw}x{nb}"), sname, pname, cfg);
            }
        }
    }
    let (sname, sched) = schedulers[1];
    for (nw, nb) in [(1usize, 1usize), (8, 8)] {
        for (pname, policy) in more_policies {
            let mut cfg = base(sched, policy);
            cfg.mem = cfg.mem.with_ubanks(nw, nb);
            dump(format!("{nw}x{nb}"), sname, pname, cfg);
        }
    }
    let (sname, sched) = schedulers[0];
    for v in variants {
        let mut cfg = base(sched, PolicyKind::Open);
        cfg.mem = cfg.mem.with_variant(v);
        dump(v.label(), sname, "open", cfg);
    }
}
