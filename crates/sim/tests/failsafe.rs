//! Fail-safe pipeline suite (DESIGN.md §5d): the validation ladder, the
//! typed-error entry points, and per-slot failure capture in sweeps. The
//! cross-cutting invariant: a healthy run through `try_run` is
//! bit-identical to `run`, and *no* configuration — valid or invalid —
//! may take the process down when entering through the fallible API.

use microbank_ctrl::policy::PolicyKind;
use microbank_ctrl::predictor::PredictorKind;
use microbank_ctrl::scheduler::SchedulerKind;
use microbank_sim::simulator::{
    golden_fingerprint, run, run_many_checked, try_run, DriveMode, SequentialReason, SimConfig,
};
use microbank_sim::SimError;
use microbank_workloads::suite::Workload;

/// The golden suite's configuration grid (kept in sync with
/// `integration_golden.rs`).
fn golden_grid() -> Vec<SimConfig> {
    let mut out = Vec::new();
    for &(nw, nb) in &[(1, 1), (8, 8)] {
        for sched in [
            SchedulerKind::FrFcfs,
            SchedulerKind::ParBs { marking_cap: 5 },
        ] {
            for policy in [
                PolicyKind::Open,
                PolicyKind::Close,
                PolicyKind::Predictive(PredictorKind::Local),
            ] {
                let mut cfg = SimConfig::spec_single_channel(Workload::Spec("429.mcf")).quick();
                cfg.mem = cfg.mem.with_ubanks(nw, nb);
                cfg.warmup_cycles = 10_000;
                cfg.measure_cycles = 30_000;
                cfg.scheduler = sched;
                cfg.policy = policy;
                out.push(cfg);
            }
        }
    }
    assert_eq!(out.len(), 12);
    out
}

/// Acceptance: all 12 golden configs produce bit-identical fingerprints
/// through `run()` and `try_run()`, and report the one drive loop.
#[test]
fn try_run_matches_run_on_every_golden_config() {
    for cfg in golden_grid() {
        let via_run = run(&cfg);
        let via_try = try_run(&cfg).expect("healthy config");
        assert_eq!(
            golden_fingerprint(&via_run),
            golden_fingerprint(&via_try),
            "run/try_run diverged for {:?}/{:?}/{:?}",
            cfg.mem.ubank,
            cfg.scheduler,
            cfg.policy
        );
        assert_eq!(
            via_try.drive,
            DriveMode::Sequential {
                reason: SequentialReason::SingleThread
            }
        );
    }
}

/// The validation ladder rejects a bad config with per-component
/// diagnostics instead of panicking mid-construction.
#[test]
fn invalid_configs_yield_typed_errors_not_panics() {
    // Several independent problems across components, reported at once.
    let mut cfg = SimConfig::paper_default(Workload::MixHigh);
    cfg.mem.queue_size = 0;
    cfg.mem.ubank.n_w = 3; // not a power of two
    cfg.mem.timing.t_ras_ns = 5.0; // < tRCD: impossible device
    cfg.cmp.mshrs_per_core = 0;
    cfg.ctrl_stride = 0;
    let err = try_run(&cfg).expect_err("invalid config must be rejected");
    match &err {
        SimError::InvalidConfig { errors } => {
            let components: Vec<&str> = errors.iter().map(|e| e.component).collect();
            assert!(components.contains(&"MemConfig"), "{components:?}");
            assert!(components.contains(&"CmpConfig"), "{components:?}");
            assert!(components.contains(&"SimConfig"), "{components:?}");
            for e in errors {
                assert!(!e.diagnostics.is_empty(), "diagnostics never empty");
            }
        }
        other => panic!("expected InvalidConfig, got: {other}"),
    }
    let shown = err.to_string();
    assert!(shown.contains("queue_size"), "{shown}");
    assert!(shown.contains("tRAS"), "{shown}");

    // A run executes on one thread: any other count is a config error
    // that points at sweep-level parallelism, never silently ignored.
    for threads in [0, 2] {
        let mut cfg = SimConfig::paper_default(Workload::MixHigh);
        cfg.threads = Some(threads);
        match try_run(&cfg).expect_err("threads != 1 must be rejected") {
            SimError::InvalidConfig { errors } => {
                assert!(
                    errors.iter().any(|e| e
                        .diagnostics
                        .iter()
                        .any(|d| d.contains("MICROBANK_THREADS"))),
                    "diagnostic should point at sweep workers: {errors:?}"
                );
            }
            other => panic!("expected InvalidConfig, got: {other}"),
        }
    }
    let mut one = SimConfig::paper_default(Workload::MixHigh);
    one.threads = Some(1);
    assert!(one.validate().is_ok(), "threads = 1 stays valid");
}

/// The panicking wrapper stays a wrapper: same rejection, as a panic
/// whose message carries the diagnostics.
#[test]
#[should_panic(expected = "unknown SPEC app")]
fn run_panics_with_formatted_diagnostics_on_invalid_config() {
    let cfg = SimConfig::spec_single_channel(Workload::Spec("no.such.app")).quick();
    let _ = run(&cfg);
}

/// The hardened sweep runner: a bad configuration reports a typed `Err`
/// in its own slot while the surviving runs still come back.
#[test]
fn run_many_checked_captures_per_slot_failures() {
    let good = SimConfig::spec_single_channel(Workload::Spec("429.mcf")).quick();
    let bad = SimConfig::spec_single_channel(Workload::Spec("no.such.app")).quick();
    let results = run_many_checked(&[good, bad]);
    assert_eq!(results.len(), 2);
    assert!(results[0].is_ok(), "healthy run must survive the sweep");
    let err = results[1]
        .as_ref()
        .expect_err("unknown app must be rejected");
    match err {
        SimError::InvalidConfig { errors } => {
            assert!(
                errors
                    .iter()
                    .any(|e| e.diagnostics.iter().any(|d| d.contains("unknown SPEC app"))),
                "diagnostics should name the unknown app, got: {errors:?}"
            );
        }
        other => panic!("expected InvalidConfig, got: {other}"),
    }
}
