//! Golden determinism suite: the hot-path refactors in the controller and
//! simulator (incremental queue indexes, pending-precharge sets, idle-tick
//! skipping, the enqueue slab, blocked-core skipping) are required to be
//! *behavior-preserving*. Each {scheduler} × {page policy} × {μbank
//! partition} configuration below must reproduce its committed fingerprint
//! exactly — every element is a function of simulated behavior only, never
//! wall clock.
//!
//! If a PR deliberately changes simulated behavior, regenerate the table
//! with the `golden_dump` binary (`cargo run --release -p microbank-bench
//! --bin golden_dump`) and scrutinize the diff in review.

use microbank_ctrl::policy::PolicyKind;
use microbank_ctrl::predictor::PredictorKind;
use microbank_ctrl::scheduler::SchedulerKind;
use microbank_faults::FaultConfig;
use microbank_sim::simulator::{golden_fingerprint, run, run_instrumented, SimConfig, SimResult};
use microbank_telemetry::TelemetryConfig;
use microbank_workloads::suite::Workload;

/// Committed fingerprints (regenerated only on deliberate behavior change).
const GOLDEN: &[(&str, &str, &str, [u64; 13])] = &[
    (
        "1x1",
        "frfcfs",
        "open",
        [
            7996,
            2140,
            0,
            2151,
            2145,
            2,
            0,
            1620,
            520,
            17120,
            2140,
            1015732,
            13233932962532133159,
        ],
    ),
    (
        "1x1",
        "frfcfs",
        "close",
        [
            8011,
            2146,
            0,
            2155,
            2149,
            2,
            0,
            1485,
            661,
            17168,
            2146,
            1016160,
            5121743617116882432,
        ],
    ),
    (
        "1x1",
        "frfcfs",
        "pred",
        [
            8023,
            2150,
            0,
            2154,
            2152,
            2,
            0,
            1462,
            688,
            17200,
            2150,
            1015492,
            3737647099831144546,
        ],
    ),
    (
        "1x1",
        "parbs",
        "open",
        [
            7999,
            2136,
            0,
            2145,
            2139,
            2,
            0,
            1688,
            448,
            17088,
            2136,
            1013420,
            14269536547925486192,
        ],
    ),
    (
        "1x1",
        "parbs",
        "close",
        [
            7926,
            2125,
            0,
            2135,
            2128,
            2,
            0,
            1536,
            589,
            17000,
            2125,
            1012892,
            617837831381716189,
        ],
    ),
    (
        "1x1",
        "parbs",
        "pred",
        [
            7980,
            2139,
            0,
            2147,
            2143,
            2,
            0,
            1496,
            643,
            17112,
            2139,
            1010202,
            12543753609092321841,
        ],
    ),
    (
        "8x8",
        "frfcfs",
        "open",
        [
            15237,
            3552,
            0,
            4082,
            3637,
            2,
            2,
            2633,
            917,
            28416,
            3552,
            1069632,
            8031994372379810256,
        ],
    ),
    (
        "8x8",
        "frfcfs",
        "close",
        [
            15240,
            3552,
            0,
            3648,
            3615,
            2,
            0,
            209,
            3343,
            28416,
            3552,
            1069504,
            2274558660540245059,
        ],
    ),
    (
        "8x8",
        "frfcfs",
        "pred",
        [
            15240,
            3552,
            0,
            3910,
            3877,
            2,
            0,
            525,
            3027,
            28416,
            3552,
            1069504,
            2274558660540245059,
        ],
    ),
    (
        "8x8",
        "parbs",
        "open",
        [
            15193,
            3550,
            0,
            4080,
            3639,
            2,
            2,
            2626,
            922,
            28400,
            3550,
            1068824,
            17821259411051779570,
        ],
    ),
    (
        "8x8",
        "parbs",
        "close",
        [
            15177,
            3551,
            0,
            3646,
            3611,
            2,
            0,
            209,
            3342,
            28408,
            3551,
            1068224,
            14940451591944711862,
        ],
    ),
    (
        "8x8",
        "parbs",
        "pred",
        [
            15223,
            3550,
            0,
            3905,
            3872,
            2,
            0,
            531,
            3019,
            28400,
            3550,
            1069040,
            7364169726719467890,
        ],
    ),
];

fn config_for(part: &str, sched: &str, policy: &str) -> SimConfig {
    let (nw, nb) = match part {
        "1x1" => (1, 1),
        "8x8" => (8, 8),
        other => panic!("unknown partition {other}"),
    };
    let mut cfg = SimConfig::spec_single_channel(Workload::Spec("429.mcf")).quick();
    cfg.mem = cfg.mem.with_ubanks(nw, nb);
    cfg.warmup_cycles = 10_000;
    cfg.measure_cycles = 30_000;
    cfg.scheduler = match sched {
        "frfcfs" => SchedulerKind::FrFcfs,
        "parbs" => SchedulerKind::ParBs { marking_cap: 5 },
        other => panic!("unknown scheduler {other}"),
    };
    cfg.policy = match policy {
        "open" => PolicyKind::Open,
        "close" => PolicyKind::Close,
        "pred" => PolicyKind::Predictive(PredictorKind::Local),
        other => panic!("unknown policy {other}"),
    };
    cfg
}

/// A short paper-default run over all 16 channels: the configuration
/// class where cross-channel merges (stats, heat, epoch rows, reliability
/// counters) actually combine more than one controller.
fn multi_channel_cfg() -> SimConfig {
    let mut cfg = SimConfig::paper_default(Workload::MixHigh);
    cfg.warmup_cycles = 5_000;
    cfg.measure_cycles = 15_000;
    cfg
}

/// Full-result equality beyond the fingerprint: every simulated-behavior
/// field must match bit for bit (profile timings excluded — they are wall
/// clock by definition).
fn assert_results_identical(a: &SimResult, b: &SimResult, tag: &str) {
    assert_eq!(
        golden_fingerprint(a),
        golden_fingerprint(b),
        "{tag}: fingerprint diverged"
    );
    assert_eq!(a.dram, b.dram, "{tag}: DRAM counter delta diverged");
    assert_eq!(
        a.per_core_committed, b.per_core_committed,
        "{tag}: per-core committed diverged"
    );
    for (what, x, y) in [
        (
            "mean read latency",
            a.mean_read_latency,
            b.mean_read_latency,
        ),
        (
            "queue occupancy",
            a.mean_queue_occupancy,
            b.mean_queue_occupancy,
        ),
        ("policy hit rate", a.policy_hit_rate, b.policy_hit_rate),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{tag}: {what} diverged");
    }
    assert_eq!(
        a.read_latency_hist, b.read_latency_hist,
        "{tag}: latency histogram diverged"
    );
    assert_eq!(a.reliability, b.reliability, "{tag}: reliability diverged");
}

#[test]
fn golden_fingerprints_are_reproduced() {
    let mut failures = Vec::new();
    for &(part, sched, policy, ref want) in GOLDEN {
        let r = run(&config_for(part, sched, policy));
        let got = golden_fingerprint(&r);
        if got != *want {
            failures.push(format!(
                "{part}/{sched}/{policy}:\n  want {want:?}\n  got  {got:?}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "behavior drift in {} golden config(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn golden_runs_are_deterministic_across_repeats() {
    // Same config twice → identical fingerprint (no hidden wall-clock or
    // iteration-order dependence anywhere in the simulated path).
    let (part, sched, policy) = ("8x8", "parbs", "pred");
    let a = golden_fingerprint(&run(&config_for(part, sched, policy)));
    let b = golden_fingerprint(&run(&config_for(part, sched, policy)));
    assert_eq!(a, b);
}

/// The reliability subsystem's hooks must be invisible when disabled:
/// `SimConfig.faults` defaults to `None`, and the table test above already
/// pins that path to the committed fingerprints. This test pins the
/// *stronger* claim: even with a fault engine attached, a clean
/// [`FaultConfig`] (no defects, zero flip rates, no scrubber) reproduces
/// the committed fingerprint bit-identically — the per-read ECC
/// assessment, the remap shim, and the loss of the idle-tick fast path are
/// all behavior-neutral.
#[test]
fn clean_fault_engine_reproduces_golden_fingerprint() {
    for &(part, sched, policy) in &[("8x8", "parbs", "pred"), ("1x1", "frfcfs", "open")] {
        let want = GOLDEN
            .iter()
            .find(|g| g.0 == part && g.1 == sched && g.2 == policy)
            .map(|g| g.3)
            .unwrap();
        let cfg = config_for(part, sched, policy).with_faults(FaultConfig::new(7));
        let r = run(&cfg);
        assert_eq!(
            golden_fingerprint(&r),
            want,
            "{part}/{sched}/{policy}: clean fault engine perturbed the simulated behavior"
        );
        let summary = r.reliability.expect("engine was armed");
        assert!(summary.reads_checked > 0, "ECC hook never ran");
        assert_eq!(
            summary.corrected + summary.detected + summary.miscorrected,
            0
        );
    }
}

/// The idle-controller wake (DESIGN §5f) defaults on, so the fingerprint
/// table above is continuously validated against the sleeping path. This
/// test pins the other side: switching the wake off ticks every
/// controller on every slot and reproduces the same committed
/// fingerprints, so the two modes can never drift apart silently.
#[test]
fn per_cycle_reference_reproduces_golden_fingerprints() {
    for &(part, sched, policy) in &[
        ("1x1", "frfcfs", "open"),
        ("8x8", "parbs", "pred"),
        ("8x8", "frfcfs", "close"),
    ] {
        let want = GOLDEN
            .iter()
            .find(|g| g.0 == part && g.1 == sched && g.2 == policy)
            .map(|g| g.3)
            .unwrap();
        let r = run(&config_for(part, sched, policy).with_time_skip(false));
        assert_eq!(
            golden_fingerprint(&r),
            want,
            "{part}/{sched}/{policy}: per-cycle reference diverged from golden"
        );
    }
}

/// The idle-controller wake (DESIGN §5f) and span tracing change wall
/// time only: on a multi-channel instrumented run, the per-cycle untraced
/// reference is reproduced bit for bit — every result field, the epoch
/// time-series, the per-μbank heat maps, and the command trace — across
/// the full {skip on, off} × {spans on, off} cross. Traced runs carry the
/// fine-grained drive split; untraced runs keep only the coarse phases.
#[test]
fn time_skip_and_span_tracing_are_behavior_neutral() {
    let cfg = multi_channel_cfg().with_telemetry(TelemetryConfig::new(2_500, 4_096));
    let (r_ref, t_ref) = run_instrumented(&cfg.clone().with_time_skip(false));
    for (skip, spans) in [(true, false), (true, true), (false, true)] {
        let (r, t) = run_instrumented(&cfg.clone().with_time_skip(skip).with_spans(spans));
        let tag = format!("skip {skip}, spans {spans}");
        assert_results_identical(&r_ref, &r, &tag);
        assert_eq!(
            t_ref.timeline.to_csv(),
            t.timeline.to_csv(),
            "{tag}: epoch time-series diverged"
        );
        assert_eq!(t_ref.heat.len(), t.heat.len());
        for (ch, (a, b)) in t_ref.heat.iter().zip(&t.heat).enumerate() {
            assert_eq!(
                a.to_csv(),
                b.to_csv(),
                "{tag}: channel {ch} heat map diverged"
            );
        }
        assert_eq!(t_ref.trace, t.trace, "{tag}: command trace diverged");
        assert_eq!(t_ref.trace_pushed, t.trace_pushed);
        assert_eq!(t_ref.trace_dropped, t.trace_dropped);
        let fine = ["drive/ctrl-tick", "drive/cpu-and-noc"];
        let paths: Vec<&str> = r.profile.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(
            fine.iter().all(|p| paths.contains(p)),
            spans,
            "{tag}: fine-grained drive spans present iff traced: {paths:?}"
        );
    }
    assert!(
        r_ref
            .profile
            .spans
            .iter()
            .all(|s| !["ctrl-tick", "cpu-and-noc"].contains(&s.name.as_str())),
        "untraced run leaked fine-grained spans: {:?}",
        r_ref.profile.spans
    );
}

/// The idle wake composes with the reliability engine. A clean-*armed*
/// engine (ECC on, no scrubber) lets an idle controller sleep to its next
/// refresh; under a stress configuration (defects, flips, scrubber armed)
/// on all 16 channels the scrub schedule bounds every sleep. Either way
/// the sleeping run must reproduce per-slot ticking, reliability counters
/// included.
#[test]
fn armed_fault_engine_is_skip_neutral() {
    let mut cases: Vec<(String, SimConfig)> = [("8x8", "parbs", "pred"), ("1x1", "frfcfs", "open")]
        .iter()
        .map(|&(part, sched, policy)| {
            (
                format!("{part}/{sched}/{policy} clean-armed"),
                config_for(part, sched, policy).with_faults(FaultConfig::new(7)),
            )
        })
        .collect();
    cases.push((
        "16-channel stress".to_string(),
        multi_channel_cfg().with_faults(FaultConfig::stress(0xFA_017)),
    ));
    for (tag, cfg) in cases {
        let per_cycle = run(&cfg.clone().with_time_skip(false));
        let skipping = run(&cfg.with_time_skip(true));
        assert_results_identical(&per_cycle, &skipping, &format!("{tag}, skip axis"));
    }
}

/// With faults armed at a fixed seed, repeat runs must be bit-identical:
/// same fingerprint AND same reliability counters. Fault sampling, ECC
/// verdicts, retries, scrub scheduling, and retirement are all seeded
/// state machines with no ambient entropy.
#[test]
fn faults_enabled_runs_are_repeat_deterministic() {
    for &(part, sched, policy) in &[("8x8", "parbs", "pred"), ("1x1", "frfcfs", "close")] {
        let mk = || config_for(part, sched, policy).with_faults(FaultConfig::stress(0xFA_017));
        let a = run(&mk());
        let b = run(&mk());
        assert_eq!(
            golden_fingerprint(&a),
            golden_fingerprint(&b),
            "{part}/{sched}/{policy}: faults-enabled fingerprint drifted between repeats"
        );
        assert_eq!(a.reliability, b.reliability);
        let s = a.reliability.unwrap();
        assert!(
            s.corrected + s.detected > 0,
            "{part}/{sched}/{policy}: stress config injected no observable errors"
        );
    }
}

/// The blast-radius argument (§ retirement granularity): the same physical
/// defects, projected onto finer μbank partitions, retire smaller units
/// and therefore cost strictly less effective capacity.
#[test]
fn finer_partitions_lose_less_capacity_to_the_same_defects() {
    let lost = |part: &str| {
        let cfg = config_for(part, "parbs", "open").with_faults(FaultConfig::stress(0xFA_017));
        run(&cfg).reliability.unwrap().capacity_lost_bytes
    };
    let coarse = lost("1x1");
    let fine = lost("8x8");
    assert!(
        fine < coarse,
        "(8,8) should lose strictly less capacity than (1,1): {fine} vs {coarse}"
    );
    assert!(coarse > 0, "stress config retired nothing at (1,1)");
}

/// Regression test for the warmup latency clamp: a read enqueued during
/// warmup but completing inside the measurement window must have its
/// enqueue time clamped to the warmup boundary, so no recorded latency can
/// exceed the measurement window length. Before the fix, a backlogged
/// (1,1) run recorded multi-window latencies for warmup stragglers,
/// poisoning the histogram tail.
#[test]
fn warmup_stragglers_cannot_exceed_window_latency() {
    let mut cfg = SimConfig::spec_single_channel(Workload::Spec("429.mcf")).quick();
    cfg.mem = cfg.mem.with_ubanks(1, 1); // minimum BLP → deep backlog
    cfg.warmup_cycles = 20_000;
    cfg.measure_cycles = 10_000;
    let r = run(&cfg);
    assert!(r.read_latency_hist.count() > 0, "no reads completed");
    assert!(
        r.read_latency_hist.max() <= cfg.measure_cycles,
        "read latency {} exceeds the {}-cycle measurement window: \
         warmup enqueue times are leaking into window latencies",
        r.read_latency_hist.max(),
        cfg.measure_cycles
    );
}
