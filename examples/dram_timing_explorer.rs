//! DRAM timing explorer: drive a μbank channel at the command level and
//! watch the timing constraints play out — the low-level API the memory
//! controller is built on.
//!
//! Run with: `cargo run --release --example dram_timing_explorer`

use microbank::prelude::*;

fn main() {
    let cfg = MemConfig::lpddr_tsi().with_ubanks(4, 4).with_refresh(false);
    let t = cfg.timings();
    let map = AddressMap::new(&cfg);
    let mut ch = Channel::new(&cfg);

    println!(
        "LPDDR-TSI channel, (nW,nB) = (4,4): {} μbanks",
        ch.num_ubanks()
    );
    println!(
        "timings (cycles @2GHz): tRCD={} tAA={} tRAS={} tRP={} tRC={} burst={}",
        t.t_rcd,
        t.t_aa,
        t.t_ras,
        t.t_rp,
        t.t_rc(),
        t.t_burst
    );
    println!();

    // Scenario: a row hit, a row conflict in the same μbank, and an
    // independent μbank proceeding in parallel.
    let a = map.decode(0x0000); // row R of μbank A
    let b = map.decode(0x0040); // next line, same row (hit)
    let conflict_addr = map.encode(&Location {
        row: a.row + 1,
        ..a
    });
    let c = map.decode(conflict_addr); // same μbank, different row
    let other = Location {
        bank: a.bank ^ 1,
        ..a
    }; // same row in another bank: a different μbank

    // The channel addresses μbanks by their flat index within the channel.
    let (fa, fo) = (a.ubank_flat(&cfg), other.ubank_flat(&cfg));
    assert_eq!([b.ubank_flat(&cfg), c.ubank_flat(&cfg)], [fa; 2]);
    assert_ne!(fo, fa);

    let mut now: Cycle = 0;
    let log = |ev: &str, at: Cycle| println!("t={at:>4}  {ev}");

    assert!(ch.can_activate_row_flat(fa, a.row, now));
    ch.activate_flat(fa, a.row, now);
    log("ACT   μbank A, row R", now);

    now += t.t_rcd;
    let done = ch.read_flat(fa, now);
    log(
        &format!("RD    μbank A, col 0      (data done t={done})"),
        now,
    );

    // Row hit: the second line needs only a column command.
    let hit_at = now + t.t_ccd;
    assert!(ch.can_column_flat(fa, b.row, false, hit_at));
    now = hit_at;
    let done = ch.read_flat(fa, now);
    log(
        &format!("RD    μbank A, col 1 (hit, data done t={done})"),
        now,
    );

    // Independent μbank: overlaps freely while A is busy.
    let mut o = now + 2;
    while !ch.can_activate_row_flat(fo, other.row, o) {
        o += 1;
    }
    ch.activate_flat(fo, other.row, o);
    log("ACT   μbank B (parallel)", o);

    // Conflict: row R must close before row R+1 opens — tRAS/tRP enforced.
    let mut p = now;
    while !ch.can_precharge_flat(fa, p) {
        p += 1;
    }
    ch.precharge_flat(fa, p);
    log("PRE   μbank A (conflict: row R+1 wanted)", p);
    let mut q = p;
    while !ch.can_activate_row_flat(fa, c.row, q) {
        q += 1;
    }
    ch.activate_flat(fa, c.row, q);
    log("ACT   μbank A, row R+1", q);
    assert_eq!(q - p, t.t_rp, "PRE→ACT separated by exactly tRP");

    println!();
    println!(
        "stats: {} ACT, {} PRE, {} RD — row cycle (ACT→ACT same bank) ≥ tRC = {} cycles",
        ch.stats.activates,
        ch.stats.precharges,
        ch.stats.reads,
        t.t_rc()
    );
}
