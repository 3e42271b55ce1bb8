//! The controller's bounded request queue.
//!
//! Each memory controller holds pending requests in a 32-entry queue
//! (§VI-A). The scheduler scans it every command slot, so beside the full
//! request records the queue keeps a dense per-entry scan view (flat μbank,
//! row, rank, kind and the PAR-BS batch mark) that the scan reads without
//! touching the records, plus two incrementally-maintained counts the hot
//! path consults in O(1):
//!
//! - per-μbank occupancy counts, which the page policies consult ("as long
//!   as the queue is not empty, the controller can make an effective
//!   decision" — §V);
//! - per-rank occupancy counts, which the power-down path consults without
//!   rescanning the queue every tick.
//!
//! The queue also stamps each entry's flat μbank index
//! ([`MemRequest::flat`]) on push, so per-tick scans never recompute
//! [`microbank_core::address::Location::ubank_flat`].

use microbank_core::config::MemConfig;
use microbank_core::request::MemRequest;

// Hot-loop hasher shared across the workspace (see `microbank_core::fxhash`
// for why the swap from SipHash is behavior-identical here).
pub use microbank_core::fxhash::{FxBuild, FxHasher};

/// What the scheduler's per-slot scan reads of one queued request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanEntry {
    /// Flat μbank index within the channel.
    pub flat: u32,
    pub row: u32,
    pub rank: u8,
    pub is_write: bool,
    /// Part of the current PAR-BS batch (see
    /// [`crate::scheduler::Scheduler::maybe_form_batch`]).
    pub marked: bool,
}

/// Bounded request queue with a dense scan view, per-μbank and per-rank
/// occupancy counts, and the PAR-BS batch marks.
#[derive(Debug, Clone)]
pub struct RequestQueue {
    entries: Vec<MemRequest>,
    /// `scan[i]` describes `entries[i]`; both move together on remove.
    scan: Vec<ScanEntry>,
    capacity: usize,
    /// Pending-request count per flat μbank index (channel-local).
    per_bank: Vec<u32>,
    /// Pending-request count per rank (for the power-down path).
    per_rank: Vec<u32>,
    /// Queued entries carrying the batch mark.
    marked: usize,
}

impl RequestQueue {
    pub fn new(cfg: &MemConfig) -> Self {
        RequestQueue {
            entries: Vec::with_capacity(cfg.queue_size),
            scan: Vec::with_capacity(cfg.queue_size),
            capacity: cfg.queue_size,
            per_bank: vec![0; cfg.ubanks_per_channel()],
            per_rank: vec![0; cfg.ranks_per_channel],
            marked: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Try to enqueue; returns `false` (and drops nothing) when full. The
    /// request's `loc` must already be decoded and channel-local; its
    /// cached flat index is stamped here. New entries are unmarked.
    pub fn push(&mut self, mut req: MemRequest, flat_ubank: usize) -> bool {
        if self.is_full() {
            return false;
        }
        req.flat = flat_ubank as u32;
        self.per_bank[flat_ubank] += 1;
        self.per_rank[req.loc.rank as usize] += 1;
        self.scan.push(ScanEntry {
            flat: req.flat,
            row: req.loc.row,
            rank: req.loc.rank,
            is_write: req.is_write(),
            marked: false,
        });
        self.entries.push(req);
        true
    }

    /// Remove the entry at `idx` (swap-remove; order is reconstructed from
    /// arrival stamps by the scheduler, so storage order is free).
    pub fn remove(&mut self, idx: usize) -> MemRequest {
        let req = self.entries.swap_remove(idx);
        let e = self.scan.swap_remove(idx);
        self.per_bank[e.flat as usize] -= 1;
        self.per_rank[e.rank as usize] -= 1;
        self.marked -= e.marked as usize;
        req
    }

    pub fn iter(&self) -> impl Iterator<Item = &MemRequest> {
        self.entries.iter()
    }

    pub fn get(&self, idx: usize) -> &MemRequest {
        &self.entries[idx]
    }

    /// The dense scan view, index-aligned with [`RequestQueue::get`].
    pub fn scan(&self) -> &[ScanEntry] {
        &self.scan
    }

    /// Put the entry at `idx` into the current batch.
    pub fn mark(&mut self, idx: usize) {
        debug_assert!(!self.scan[idx].marked, "entry {idx} marked twice");
        self.scan[idx].marked = true;
        self.marked += 1;
    }

    /// Is the entry at `idx` part of the current batch?
    pub fn is_marked(&self, idx: usize) -> bool {
        self.scan[idx].marked
    }

    /// Number of queued entries in the current batch: a batch is exhausted
    /// when this reaches zero, since marks leave only with their entries.
    pub fn marked_count(&self) -> usize {
        self.marked
    }

    /// Flag the entry at `idx` as having consumed its one corrected-ECC
    /// demand retry (reliability subsystem). Touches no index state: the
    /// request keeps its μbank/row/kind, it is merely re-serviced.
    pub fn mark_retried(&mut self, idx: usize) {
        self.entries[idx].retried = true;
    }

    /// Number of queued requests targeting the given μbank.
    pub fn pending_for_bank(&self, flat_ubank: usize) -> u32 {
        self.per_bank[flat_ubank]
    }

    /// Number of queued requests targeting the given rank.
    pub fn pending_for_rank(&self, rank: usize) -> u32 {
        self.per_rank[rank]
    }

    /// Does any queued request target `flat_ubank` with `row`? A scan of
    /// the queue; the demand scheduler derives the same answer for every
    /// open row in its own pass.
    pub fn any_hit_for(&self, flat_ubank: usize, row: u32) -> bool {
        self.scan
            .iter()
            .any(|e| e.flat as usize == flat_ubank && e.row == row)
    }

    /// Indices of all entries, for scheduler scans.
    pub fn indices(&self) -> std::ops::Range<usize> {
        0..self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microbank_core::address::AddressMap;
    use microbank_core::request::{MemRequest, ReqKind};

    fn cfg() -> MemConfig {
        MemConfig::lpddr_tsi().with_ubanks(2, 2).with_queue_size(4)
    }

    fn req(id: u64, addr: u64, cfg: &MemConfig) -> (MemRequest, usize) {
        let map = AddressMap::new(cfg);
        let mut r = MemRequest::new(id, addr, ReqKind::Read, 0, id);
        r.loc = map.decode(addr);
        let flat = r.loc.ubank_flat(cfg);
        (r, flat)
    }

    #[test]
    fn respects_capacity() {
        let c = cfg();
        let mut q = RequestQueue::new(&c);
        for i in 0..4 {
            let (r, f) = req(i, i * 64, &c);
            assert!(q.push(r, f));
        }
        assert!(q.is_full());
        let (r, f) = req(99, 99 * 64, &c);
        assert!(!q.push(r, f));
        assert_eq!(q.len(), 4);
    }

    #[test]
    fn push_stamps_cached_flat_index() {
        let c = cfg();
        let mut q = RequestQueue::new(&c);
        let (r, f) = req(0, 0x4000, &c);
        q.push(r, f);
        assert_eq!(q.get(0).flat as usize, f);
    }

    #[test]
    fn per_bank_counts_track_push_and_remove() {
        let c = cfg();
        let mut q = RequestQueue::new(&c);
        // 0x4000 differs in the bank field for (2,2) at row interleaving,
        // so the two requests target distinct μbanks.
        let (r1, f1) = req(0, 0, &c);
        let (r2, f2) = req(1, 0x4000, &c);
        assert_ne!(f1, f2);
        q.push(r1, f1);
        q.push(r2, f2);
        assert_eq!(q.pending_for_bank(f1), 1);
        assert_eq!(q.pending_for_bank(f2), 1);
        assert_eq!(q.pending_for_rank(0), 2);
        let idx = q.indices().find(|&i| q.get(i).id == 0).unwrap();
        q.remove(idx);
        assert_eq!(q.pending_for_bank(f1), 0);
        assert_eq!(q.pending_for_bank(f2), 1);
        assert_eq!(q.pending_for_rank(0), 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn any_hit_for_matches_row() {
        let c = cfg();
        let mut q = RequestQueue::new(&c);
        let (r, f) = req(0, 0, &c);
        let row = r.loc.row;
        q.push(r, f);
        assert!(q.any_hit_for(f, row));
        assert!(!q.any_hit_for(f, row + 1));
    }

    #[test]
    fn marks_follow_their_entries_through_swap_remove() {
        let c = cfg();
        let mut q = RequestQueue::new(&c);
        for i in 0..3 {
            let (r, f) = req(i, i * 64, &c);
            q.push(r, f);
        }
        q.mark(0);
        q.mark(2);
        assert_eq!(q.marked_count(), 2);
        // Removing entry 0 moves entry 2 (id 2, marked) into slot 0.
        q.remove(0);
        assert_eq!(q.get(0).id, 2);
        assert!(q.is_marked(0) && !q.is_marked(1));
        assert_eq!(q.marked_count(), 1);
        q.remove(0);
        assert_eq!(q.marked_count(), 0);
    }
}
