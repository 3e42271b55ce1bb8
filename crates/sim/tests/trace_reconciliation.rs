//! Trace ⇔ stats reconciliation: every DRAM command the controller puts
//! on a channel goes through one issue path, which both mutates the
//! channel (and so its `DramStats`) and records the command trace. With
//! no warmup and a trace ring too large to wrap, the per-kind trace
//! counts must therefore equal the run's DRAM counters exactly, across
//! every page policy, every device variant and the stress fault
//! configuration with the patrol scrubber armed.
//!
//! The one named exception is the perfect oracle's retroactive precharge
//! (`Channel::oracle_precharge_flat`): it models a PRE the oracle would
//! have issued earlier, never occupies the command bus, and is counted
//! in `precharges` without a trace record.

use microbank_core::stats::DramStats;
use microbank_core::variant::{DeviceVariant, SalpMode};
use microbank_ctrl::policy::PolicyKind;
use microbank_ctrl::predictor::PredictorKind;
use microbank_faults::FaultConfig;
use microbank_sim::simulator::{run_instrumented, SimConfig};
use microbank_telemetry::{CmdKind, TelemetryConfig};
use microbank_workloads::suite::Workload;

const CYCLES: u64 = 20_000;

fn policies() -> [PolicyKind; 7] {
    [
        PolicyKind::Open,
        PolicyKind::Close,
        PolicyKind::MinimalistOpen { window_cycles: 200 },
        PolicyKind::Predictive(PredictorKind::Local),
        PolicyKind::Predictive(PredictorKind::Global),
        PolicyKind::Predictive(PredictorKind::Tournament),
        PolicyKind::Predictive(PredictorKind::Perfect),
    ]
}

fn variants() -> [DeviceVariant; 7] {
    let salp = |mode| DeviceVariant::Salp { subarrays: 8, mode };
    let sectored = |sectors_per_act| DeviceVariant::Sectored {
        sectors: 16,
        sectors_per_act,
    };
    [
        DeviceVariant::Microbank,
        DeviceVariant::Conventional,
        salp(SalpMode::Salp1),
        salp(SalpMode::Salp2),
        salp(SalpMode::Masa),
        sectored(8),
        sectored(2),
    ]
}

fn cfg(policy: PolicyKind, variant: DeviceVariant) -> SimConfig {
    let mut cfg = SimConfig::spec_single_channel(Workload::Spec("429.mcf"))
        .with_faults(FaultConfig::stress(0xFA_017))
        .with_telemetry(TelemetryConfig::new(CYCLES, CYCLES as usize));
    cfg.mem = cfg.mem.with_variant(variant);
    cfg.warmup_cycles = 0;
    cfg.measure_cycles = CYCLES;
    cfg.policy = policy;
    cfg
}

/// Runs `cfg` and checks the reconciliation; returns the number of
/// precharges counted without a trace record and the run's counters.
fn reconcile(cfg: &SimConfig, tag: &str) -> (u64, DramStats) {
    let (r, t) = run_instrumented(cfg);
    assert_eq!(t.trace_dropped, 0, "{tag}: trace ring wrapped");
    assert_eq!(t.trace.len() as u64, t.trace_pushed);
    let count =
        |kinds: &[CmdKind]| t.trace.iter().filter(|c| kinds.contains(&c.cmd)).count() as u64;
    let d = &r.dram;
    for (kind, want) in [
        (CmdKind::Act, d.activates),
        (CmdKind::Rd, d.reads),
        (CmdKind::Wr, d.writes),
        (CmdKind::Ref, d.refreshes),
        (CmdKind::Scrub, d.scrubs),
    ] {
        assert_eq!(count(&[kind]), want, "{tag}: {} records", kind.name());
    }
    let traced_pre = count(&[CmdKind::Pre, CmdKind::PreA]);
    assert!(
        traced_pre <= d.precharges,
        "{tag}: {traced_pre} PRE/PREA records but {} precharges",
        d.precharges
    );
    assert!(d.reads > 0 && d.refreshes > 0, "{tag}: run too short");
    (d.precharges - traced_pre, r.dram)
}

#[test]
fn trace_counts_equal_dram_stats_for_every_policy_and_variant() {
    let mut oracle_pre = 0;
    let mut scrubs = 0;
    for policy in policies() {
        for variant in variants() {
            let tag = format!("{} / {}", policy.label(), variant.label());
            let (untraced, dram) = reconcile(&cfg(policy, variant), &tag);
            scrubs += dram.scrubs;
            if policy == PolicyKind::Predictive(PredictorKind::Perfect) {
                oracle_pre += untraced;
            } else {
                assert_eq!(untraced, 0, "{tag}: precharge issued off the issue path");
            }
        }
    }
    assert!(scrubs > 0, "the armed scrubber never issued");
    assert!(
        oracle_pre > 0,
        "the perfect oracle never precharged retroactively: the named exception is untested"
    );
}

/// Rank power-down adds the idle-rank PREA, the one command issued
/// outside the refresh/demand/scrub/policy phases. It needs idle ranks:
/// a light workload spread over all 16 channels.
#[test]
fn powerdown_prea_is_traced() {
    let mut cfg = SimConfig::paper_default(Workload::Spec("453.povray"))
        .with_faults(FaultConfig::stress(0xFA_017))
        .with_telemetry(TelemetryConfig::new(CYCLES, CYCLES as usize));
    cfg.cmp.cores = 8;
    cfg.mem = cfg.mem.with_powerdown(500);
    cfg.warmup_cycles = 0;
    cfg.measure_cycles = CYCLES;
    let (untraced, dram) = reconcile(&cfg, "open / powerdown");
    assert_eq!(untraced, 0);
    assert!(dram.powerdown_entries > 0, "no rank ever powered down");
}
