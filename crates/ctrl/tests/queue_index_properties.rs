//! Property tests for the request queue's incrementally-maintained state:
//! under arbitrary interleavings of pushes, swap-removes and batch marks,
//! the per-μbank counts, per-rank counts, per-entry batch
//! marks, marked count and the dense scan view must always agree with a
//! naive rescan of the queue contents (and, for marks, with a model kept
//! beside the queue). The scheduler trusts these instead of rescanning, so
//! any drift here silently changes scheduling decisions.

use microbank_core::address::AddressMap;
use microbank_core::config::MemConfig;
use microbank_core::request::{MemRequest, ReqKind};
use microbank_ctrl::queue::{RequestQueue, ScanEntry};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn cfg() -> MemConfig {
    MemConfig::lpddr_tsi().with_ubanks(4, 4).with_queue_size(16)
}

/// Check every piece of queue state against a rescan of its entries;
/// `marked` holds the ids the test has marked and not yet removed.
fn check_agreement(q: &RequestQueue, cfg: &MemConfig, marked: &BTreeSet<u64>) {
    let mut per_bank = vec![0u32; cfg.ubanks_per_channel()];
    let mut per_rank = vec![0u32; cfg.ranks_per_channel];
    for r in q.iter() {
        per_bank[r.flat as usize] += 1;
        per_rank[r.loc.rank as usize] += 1;
    }
    for (flat, &want) in per_bank.iter().enumerate() {
        assert_eq!(q.pending_for_bank(flat), want, "per-bank[{flat}]");
    }
    for (rank, &want) in per_rank.iter().enumerate() {
        assert_eq!(q.pending_for_rank(rank), want, "per-rank[{rank}]");
    }

    // The scan view is index-aligned with the records and carries each
    // entry's own mark.
    assert_eq!(q.scan().len(), q.len());
    for i in q.indices() {
        let r = q.get(i);
        let want = ScanEntry {
            flat: r.flat,
            row: r.loc.row,
            rank: r.loc.rank,
            is_write: r.is_write(),
            marked: marked.contains(&r.id),
        };
        assert_eq!(q.scan()[i], want, "scan[{i}] (id {})", r.id);
        assert_eq!(q.is_marked(i), want.marked, "mark[{i}]");
    }
    let flagged = q.indices().filter(|&i| q.is_marked(i)).count();
    assert_eq!(q.marked_count(), flagged, "marked count vs flags");
    assert_eq!(q.marked_count(), marked.len(), "marked count vs model");

    // The scrubber's hit check against the records.
    for r in q.iter() {
        let flat = r.flat as usize;
        assert!(q.any_hit_for(flat, r.loc.row));
        let other = r.loc.row.wrapping_add(1);
        let want = q.iter().any(|s| s.flat == r.flat && s.loc.row == other);
        assert_eq!(q.any_hit_for(flat, other), want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn incremental_indexes_match_naive_rescan(
        // Each op: address (line-aligned by masking), write flag, and a
        // selector choosing push, removal or mark and the entry it hits.
        ops in prop::collection::vec((0u64..(1 << 26), any::<bool>(), any::<u8>()), 1..200),
    ) {
        let c = cfg();
        let map = AddressMap::new(&c);
        let mut q = RequestQueue::new(&c);
        let mut marked = BTreeSet::new();
        let mut next_id = 0u64;
        for (raw, is_write, sel) in ops {
            // Mixed workload: pushes, removals and marks once the queue
            // has entries (sel % 3: 1 → removal, 2 → mark).
            let pick = (sel as usize / 3) % q.len().max(1);
            if sel % 3 == 1 && !q.is_empty() {
                let id = q.remove(pick).id;
                marked.remove(&id);
            } else if sel % 3 == 2 && !q.is_empty() {
                if !q.is_marked(pick) {
                    q.mark(pick);
                    marked.insert(q.get(pick).id);
                }
            } else if !q.is_full() {
                let addr = raw & !63;
                let kind = if is_write { ReqKind::Write } else { ReqKind::Read };
                let mut r = MemRequest::new(next_id, addr, kind, 0, next_id);
                next_id += 1;
                r.loc = map.decode(addr);
                let flat = r.loc.ubank_flat(&c);
                prop_assert!(q.push(r, flat));
            }
            check_agreement(&q, &c, &marked);
        }
        // Drain fully: counts must return to zero everywhere.
        while !q.is_empty() {
            let id = q.remove(0).id;
            marked.remove(&id);
            check_agreement(&q, &c, &marked);
        }
        prop_assert_eq!(q.marked_count(), 0);
    }
}
