//! The idle-controller wake against per-slot ticking.
//!
//! The contract under test (DESIGN §5f): when `idle_until()` returns
//! `Some(w)`, every `tick` strictly before `w` only does stats
//! accounting, provided no enqueue lands first — so a drive that sleeps
//! the controller until `w` (or the next arrival) and replays the slept
//! slots through `account_idle_ticks` is bit-identical to ticking every
//! slot. The simulator's drive loop leans on exactly this claim; the
//! golden suites would catch a wake that lands too late, and this suite
//! localizes the blame to one controller.

use microbank_core::config::MemConfig;
use microbank_core::request::{MemRequest, ReqKind, TenantId};
use microbank_core::stats::DramStats;
use microbank_core::Cycle;
use microbank_ctrl::{
    Completion, MemoryController, PolicyKind, PredictorKind, QosConfig, SchedulerKind,
};
use microbank_faults::FaultConfig;
use proptest::prelude::*;

const POLICIES: [PolicyKind; 7] = [
    PolicyKind::Open,
    PolicyKind::Close,
    PolicyKind::MinimalistOpen { window_cycles: 200 },
    PolicyKind::Predictive(PredictorKind::Local),
    PolicyKind::Predictive(PredictorKind::Global),
    PolicyKind::Predictive(PredictorKind::Tournament),
    PolicyKind::Predictive(PredictorKind::Perfect),
];

/// One controller setup of the grid.
#[derive(Debug, Clone, Copy)]
struct Setup {
    nw: usize,
    nb: usize,
    policy: PolicyKind,
    parbs: bool,
    refresh: bool,
    scrub: bool,
    qos: bool,
}

impl Setup {
    fn build(&self) -> MemoryController {
        let cfg = MemConfig::lpddr_tsi()
            .with_ubanks(self.nw, self.nb)
            .with_channels(1)
            .with_refresh(self.refresh);
        let sched = if self.parbs {
            SchedulerKind::ParBs { marking_cap: 5 }
        } else {
            SchedulerKind::FrFcfs
        };
        let mut c = MemoryController::new(&cfg, sched, self.policy, 4);
        if self.scrub {
            // Every fault mode plus a patrol scrub that comes due inside
            // the idle gaps between bursts.
            c.enable_faults(&FaultConfig::stress(7).with_scrub(700), 0);
        }
        if self.qos {
            // Tenant 0 is regulated hard enough to throttle inside a burst;
            // tenant 1 is unregulated.
            let qc = QosConfig::tracking()
                .with_work_conserving(false)
                .with_tenant(Some(2), 0)
                .with_tenant(None, 0);
            c.enable_qos(&qc);
        }
        c
    }
}

fn mkreq(c: &MemoryController, id: u64, addr: u64, write: bool, thread: u16) -> MemRequest {
    let kind = if write { ReqKind::Write } else { ReqKind::Read };
    let mut r = MemRequest::new(id, addr, kind, thread, 0);
    r.loc = c.map().decode(addr);
    r.tenant = TenantId((thread % 2) as u8);
    r
}

/// Everything a run leaves behind that a sleeping drive must reproduce.
#[derive(Debug, PartialEq)]
struct Outcome {
    completions: Vec<(u64, Cycle)>,
    dram: DramStats,
    /// `CtrlStats` (tick calls, occupancy histogram, policy accuracy, …),
    /// the fault summary and the QoS counters, by their `Debug` rendering.
    ctrl: String,
    faults: String,
    qos: String,
}

fn outcome(c: &MemoryController, done: &[Completion]) -> Outcome {
    Outcome {
        completions: done.iter().map(|d| (d.id, d.at)).collect(),
        dram: c.channel.stats,
        ctrl: format!("{:?}", c.stats),
        faults: format!("{:?}", c.faults.as_ref().map(|f| f.summary)),
        qos: format!("{:?}", c.qos.as_ref().map(|q| q.stats)),
    }
}

/// Tick every slot; arrivals land before the slot's tick (the order the
/// simulator's drive uses).
fn drive_reference(
    c: &mut MemoryController,
    arrivals: &[(Cycle, MemRequest)],
    limit: Cycle,
) -> Vec<Completion> {
    let mut done = Vec::new();
    let mut next = 0;
    for now in 0..limit {
        while next < arrivals.len() && arrivals[next].0 <= now {
            c.enqueue(arrivals[next].1, now);
            next += 1;
        }
        c.tick(now);
        c.take_completions(&mut done);
    }
    done
}

/// The simulator's wake protocol: sleep until `idle_until` (the next slot
/// when it declines), wake on an accepted enqueue, and replay slept slots
/// through `account_idle_ticks` before every tick, before every enqueue
/// and at the end. Returns the completions and the ticks executed.
fn drive_idle_wake(
    c: &mut MemoryController,
    arrivals: &[(Cycle, MemRequest)],
    limit: Cycle,
) -> (Vec<Completion>, u64) {
    let mut done = Vec::new();
    let mut next = 0;
    let mut wake: Cycle = 0;
    let mut slept: u64 = 0;
    let mut ticked: u64 = 0;
    for now in 0..limit {
        while next < arrivals.len() && arrivals[next].0 <= now {
            c.account_idle_ticks(std::mem::take(&mut slept));
            if c.enqueue(arrivals[next].1, now) {
                wake = now;
            }
            next += 1;
        }
        if wake > now {
            slept += 1;
            continue;
        }
        c.account_idle_ticks(std::mem::take(&mut slept));
        c.tick(now);
        ticked += 1;
        c.take_completions(&mut done);
        wake = c.idle_until().unwrap_or(now + 1);
    }
    c.account_idle_ticks(slept);
    (done, ticked)
}

/// Bursty traffic with idle gaps longer than the scrub interval and the
/// minimalist close window: row hits, same-μbank conflicts, both tenants,
/// and reads mixed with writes.
fn bursts(c: &MemoryController) -> Vec<(Cycle, MemRequest)> {
    let mut arrivals = Vec::new();
    let mut id = 0;
    for burst in 0..10u64 {
        let base = burst * 3_700;
        for j in 0..6u64 {
            let addr = (burst % 3) * 0x40_000 + (j % 2) * 0x9000 + j * 0x40;
            let write = (burst + j).is_multiple_of(2);
            arrivals.push((base + j * 3, mkreq(c, id, addr, write, (j % 4) as u16)));
            id += 1;
        }
    }
    arrivals
}

#[test]
fn idle_wake_matches_per_slot_ticking_across_policy_grid() {
    const LIMIT: Cycle = 40_000;
    for policy in POLICIES {
        for refresh in [false, true] {
            for scrub in [false, true] {
                for qos in [false, true] {
                    let s = Setup {
                        nw: 4,
                        nb: 4,
                        policy,
                        parbs: true,
                        refresh,
                        scrub,
                        qos,
                    };
                    let (mut a, mut b) = (s.build(), s.build());
                    let arrivals = bursts(&a);
                    let ra = drive_reference(&mut a, &arrivals, LIMIT);
                    let (rb, ticked) = drive_idle_wake(&mut b, &arrivals, LIMIT);
                    assert_eq!(ra.len(), arrivals.len(), "{s:?}: requests left unfinished");
                    assert_eq!(outcome(&a, &ra), outcome(&b, &rb), "{s:?}");
                    assert_eq!(a.stats.tick_calls, LIMIT, "{s:?}");
                    assert!(
                        ticked < LIMIT / 2,
                        "{s:?}: the wake slept through only {} of {LIMIT} slots",
                        LIMIT - ticked
                    );
                }
            }
        }
    }
}

/// A request arriving at cycle 0 or 1 is served on exactly the slot the
/// per-slot reference serves it: a wake value is a real cycle, never a
/// sentinel that "tick immediately" could alias.
#[test]
fn controller_woken_at_cycle_zero_and_one_is_ticked() {
    let s = Setup {
        nw: 2,
        nb: 2,
        policy: PolicyKind::Open,
        parbs: false,
        refresh: false,
        scrub: false,
        qos: false,
    };
    let mut probe = s.build();
    assert_eq!(probe.idle_until(), Some(Cycle::MAX), "nothing pending");
    let arrivals = vec![
        (0, mkreq(&probe, 1, 0x40, false, 0)),
        (1, mkreq(&probe, 2, 0x10_000, false, 1)),
    ];
    assert!(probe.enqueue(arrivals[0].1, 0));
    assert_eq!(probe.idle_until(), None, "a queued request keeps it awake");
    probe.tick(0);
    assert_eq!(
        probe.channel.stats.activates, 1,
        "activates on the cycle-0 tick"
    );
    let (mut a, mut b) = (s.build(), s.build());
    let ra = drive_reference(&mut a, &arrivals, 5_000);
    let (rb, _) = drive_idle_wake(&mut b, &arrivals, 5_000);
    assert_eq!(outcome(&a, &ra), outcome(&b, &rb));
}

/// An armed scrubber bounds the sleep: an idle controller wakes no later
/// than the scrub's due cycle, and the scrub issues on that tick.
#[test]
fn armed_scrubber_bounds_the_sleep() {
    let s = Setup {
        nw: 2,
        nb: 2,
        policy: PolicyKind::Open,
        parbs: true,
        refresh: true,
        scrub: true,
        qos: false,
    };
    let mut c = s.build();
    let wake = c.idle_until().expect("idle at reset");
    assert_eq!(wake, 700, "scrub due before the first refresh");
    c.tick(wake);
    assert_eq!(c.channel.stats.scrubs, 1, "the wake tick issues the scrub");
    assert!(c.idle_until().expect("idle after the scrub") > wake);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tick every cycle and, inside every window the controller claimed
    /// to sleep through (`idle_until` after a tick, no enqueue since),
    /// assert no tick issues a command or changes anything but the
    /// per-tick accounting; then check the sleeping drive reproduces the
    /// per-slot run exactly. Randomizes geometry, policy, scheduler,
    /// refresh, scrubbing, QoS and traffic.
    #[test]
    fn no_tick_before_the_wake_issues_a_command(
        nw_log2 in 0u32..=2,
        nb_log2 in 0u32..=2,
        policy_ix in 0usize..7,
        parbs in any::<bool>(),
        refresh in any::<bool>(),
        scrub in any::<bool>(),
        qos in any::<bool>(),
        reqs in prop::collection::vec(
            (0u64..2_000, 0u64..64, any::<bool>(), 0u16..4),
            1..24,
        ),
    ) {
        let s = Setup {
            nw: 1 << nw_log2,
            nb: 1 << nb_log2,
            policy: POLICIES[policy_ix],
            parbs,
            refresh,
            scrub,
            qos,
        };
        let mut c = s.build();
        let mut at = 0;
        let mut arrivals: Vec<(Cycle, MemRequest)> = Vec::new();
        for (i, &(gap, aidx, wr, thread)) in reqs.iter().enumerate() {
            at += gap;
            // Strides across rows, banks and columns so hits and
            // conflicts both occur.
            arrivals.push((at, mkreq(&c, i as u64, aidx * 0x1240, wr, thread)));
        }

        const LIMIT: Cycle = 60_000;
        let mut done = Vec::new();
        let mut next = 0;
        let mut claim: Option<Cycle> = None;
        for now in 0..LIMIT {
            while next < arrivals.len() && arrivals[next].0 <= now {
                c.enqueue(arrivals[next].1, now);
                next += 1;
                claim = None;
            }
            let before = (c.channel.stats, done.len(), format!("{:?}", c.faults.as_ref().map(|f| f.summary)));
            c.tick(now);
            c.take_completions(&mut done);
            if let Some(wake) = claim.filter(|&w| now < w) {
                let after = (c.channel.stats, done.len(), format!("{:?}", c.faults.as_ref().map(|f| f.summary)));
                prop_assert_eq!(&before, &after, "tick at {} acted before the wake at {}", now, wake);
            }
            claim = c.idle_until();
        }
        prop_assert_eq!(done.len(), arrivals.len(), "requests left unfinished");

        let mut b = s.build();
        let (rb, _) = drive_idle_wake(&mut b, &arrivals, LIMIT);
        prop_assert_eq!(outcome(&c, &done), outcome(&b, &rb));
    }
}
