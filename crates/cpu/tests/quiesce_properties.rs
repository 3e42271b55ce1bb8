//! The per-core quiesce against per-cycle ticking.
//!
//! `CmpSystem::tick` skips commit and dispatch for a core whose
//! `Core::quiesced_until` wake lies in the future and only bumps the
//! stall counter it names. That is exact iff a core ticked on every cycle
//! from a quiesced state changes nothing else before the wake, as long as
//! no fill reaches it. This suite ticks a lone core every cycle against a
//! model memory (fixed hit latency, an MSHR budget, fills after a fixed
//! delay) and checks exactly that inside every quiesced window.

use microbank_core::Cycle;
use microbank_cpu::rob::{Core, MemOutcome, StallKind};
use microbank_cpu::{Instr, InstrSource};
use proptest::prelude::*;

/// A seeded stream: `mem_pct`% memory instructions, a fifth of them
/// stores, over 64 lines.
struct Stream {
    state: u64,
    mem_pct: u64,
    calls: u64,
}

impl InstrSource for Stream {
    fn next_instr(&mut self) -> Instr {
        self.calls += 1;
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = self.state >> 33;
        if r % 100 >= self.mem_pct {
            return Instr::Compute;
        }
        Instr::Mem {
            addr: (r % 64) << 6,
            is_write: r.is_multiple_of(5),
        }
    }
}

/// Lines below `hit_lines` hit after `hit_lat`; the rest miss and hold
/// one of `mshrs` entries until their fill `miss_lat` later (a store's
/// entry too, though the store itself retires at once).
struct Memory {
    hit_lines: u64,
    hit_lat: Cycle,
    miss_lat: Cycle,
    mshrs: usize,
    /// (fill cycle, ROB sequence of the waiting load, if any).
    inflight: Vec<(Cycle, Option<u64>)>,
}

impl Memory {
    fn access(&mut self, addr: u64, is_write: bool, seq: u64, now: Cycle) -> MemOutcome {
        if (addr >> 6) < self.hit_lines {
            return MemOutcome::ReadyAt(now + self.hit_lat);
        }
        if self.inflight.len() >= self.mshrs {
            return MemOutcome::Stall;
        }
        let fill = now + self.miss_lat;
        if is_write {
            self.inflight.push((fill, None));
            MemOutcome::ReadyAt(now + 1)
        } else {
            self.inflight.push((fill, Some(seq)));
            MemOutcome::Pending
        }
    }

    /// Deliver the fills due at `now`; true if any arrived.
    fn deliver(&mut self, core: &mut Core, now: Cycle) -> bool {
        let before = self.inflight.len();
        self.inflight.retain(|&(at, seq)| {
            if at > now {
                return true;
            }
            if let Some(seq) = seq {
                core.complete_load(seq, now);
            }
            false
        });
        self.inflight.len() != before
    }
}

#[derive(Debug, Clone, Copy)]
struct Params {
    rob: usize,
    width: usize,
    alu: u64,
    mshrs: usize,
    mem_pct: u64,
    hit_lines: u64,
    miss_lat: Cycle,
    seed: u64,
}

/// Tick one core every cycle for `cycles`. Inside every window the core
/// claimed quiesced (after a tick at `t`, `quiesced_until` returned a wake
/// `w > t + 1`, and no fill has arrived since), each tick must leave the
/// core, its instruction stream and the memory untouched except for one
/// more cycle on the named stall counter. Returns how many ticks of each
/// kind were checked.
fn check_quiesce(p: Params, cycles: Cycle) -> (u64, u64) {
    let mut core = Core::new(0, p.rob, p.width, p.alu);
    let mut src = Stream {
        state: p.seed,
        mem_pct: p.mem_pct,
        calls: 0,
    };
    let mut mem = Memory {
        hit_lines: p.hit_lines,
        hit_lat: 3,
        miss_lat: p.miss_lat,
        mshrs: p.mshrs,
        inflight: Vec::new(),
    };
    let (mut rob_full, mut mshr) = (0, 0);
    let mut claim: Option<(Cycle, StallKind)> = None;
    for now in 0..cycles {
        if mem.deliver(&mut core, now) {
            claim = None;
        }
        let stats = core.stats;
        let before = (format!("{core:?}"), src.calls, mem.inflight.clone());
        core.commit(now);
        core.dispatch(now, &mut src, |a, w, seq| mem.access(a, w, seq, now));
        if let Some((wake, kind)) = claim.filter(|&(w, _)| now < w) {
            let mut expect = stats;
            match kind {
                StallKind::RobFull => {
                    expect.rob_full_cycles += 1;
                    rob_full += 1;
                }
                StallKind::MshrReplay => {
                    expect.mshr_stall_cycles += 1;
                    mshr += 1;
                }
            }
            assert_eq!(
                format!("{:?}", core.stats),
                format!("{expect:?}"),
                "{:?}: stats at {} before the wake at {}",
                p,
                now,
                wake
            );
            let after_stats = core.stats;
            core.stats = stats;
            let after = (format!("{core:?}"), src.calls, mem.inflight.clone());
            core.stats = after_stats;
            assert_eq!(
                &before, &after,
                "{:?}: tick at {} moved the core before the wake at {}",
                p, now, wake
            );
        }
        let (wake, kind) = core.quiesced_until();
        claim = (wake > now + 1).then_some((wake, kind));
    }
    (rob_full, mshr)
}

/// Both stall kinds occur and are checked on a memory-bound core: a
/// tight MSHR budget wedges dispatch, a loose one fills the ROB.
#[test]
fn quiesced_core_changes_only_its_stall_counter() {
    let (mut rob_full, mut mshr) = (0, 0);
    for mshrs in [1, 4, 16] {
        let p = Params {
            rob: 32,
            width: 2,
            alu: 1,
            mshrs,
            mem_pct: 40,
            hit_lines: 16,
            miss_lat: 200,
            seed: 5,
        };
        let (r, m) = check_quiesce(p, 20_000);
        rob_full += r;
        mshr += m;
    }
    assert!(rob_full > 1_000, "{rob_full} ROB-full cycles checked");
    assert!(mshr > 1_000, "{mshr} MSHR-stall cycles checked");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn quiesce_holds_for_random_cores_and_traffic(
        rob in 1usize..40,
        width in 1usize..4,
        alu in 1u64..5,
        mshrs in 1usize..9,
        mem_pct in 0u64..100,
        hit_lines in 0u64..64,
        miss_lat in 1u64..400,
        seed in any::<u64>(),
    ) {
        let p = Params { rob, width, alu, mshrs, mem_pct, hit_lines, miss_lat, seed };
        check_quiesce(p, 5_000);
    }
}
