//! Memory-access scheduling: FR-FCFS and PAR-BS (Mutlu & Moscibroda \[46\]),
//! the paper's default scheduler (§VI-A).
//!
//! PAR-BS forms *batches*: when no marked requests remain, it marks up to
//! `marking_cap` oldest requests per (thread, bank) pair. Marked requests
//! have absolute priority over unmarked ones, which bounds each thread's
//! memory-induced delay. Within the batch, FR-FCFS row-hit-first ordering
//! preserves locality, threads are ranked shortest-job-first (fewest marked
//! requests first — "the memory access scheduler detects and restores
//! spatial locality that can be extracted from the request queue", §VI-C),
//! and age breaks ties.

use crate::qos::{tenant_slot, MAX_TENANTS};
use crate::queue::{FxBuild, RequestQueue};
use microbank_core::request::TenantId;
use microbank_core::Cycle;
use std::collections::{HashMap, HashSet};

/// Scheduling discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// First-ready, first-come-first-served: row hits first, then oldest.
    FrFcfs,
    /// Parallelism-aware batch scheduling with the given per-(thread, bank)
    /// marking cap (the paper's default; cap 5 in the original PAR-BS).
    ParBs { marking_cap: usize },
}

impl Default for SchedulerKind {
    fn default() -> Self {
        SchedulerKind::ParBs { marking_cap: 5 }
    }
}

/// What the controller could do for one queue entry right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// RD/WR to an open row (a row hit).
    Column,
    /// ACT on an idle bank.
    Activate,
    /// PRE of the flat μbank named: the request's own μbank when a
    /// conflicting row is open, or a *sibling* whose open row structurally
    /// blocks this request's ACT under the device variant's issue rules
    /// (SALP open-row limit, Sectored shared row decoder).
    Precharge(u32),
}

/// A schedulable (queue entry, action) pair with priority inputs.
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    /// Index into the request queue.
    pub idx: usize,
    pub action: Action,
    pub id: u64,
    pub thread: u16,
    pub arrival: Cycle,
    /// Owning tenant (always `TenantId(0)` outside multi-tenant runs);
    /// consulted only when a QoS priority table is installed.
    pub tenant: TenantId,
}

/// Stateful scheduler (batch bookkeeping for PAR-BS).
///
/// Invariant: `marked` is always a subset of the ids currently in the
/// queue. Marks are created only from queue entries in
/// [`Scheduler::maybe_form_batch`] and removed only via
/// [`Scheduler::note_serviced`], which the controller calls exactly when it
/// removes the entry from the queue. "Any queued request is still marked"
/// is therefore equivalent to `!marked.is_empty()`, with no queue scan.
#[derive(Debug, Clone)]
pub struct Scheduler {
    kind: SchedulerKind,
    marked: HashSet<u64, FxBuild>,
    /// Shortest-job-first rank per thread in the current batch, indexed by
    /// thread (`u32::MAX` = unmarked). A `Vec`, not a map: `select` looks
    /// every candidate up on every controller tick.
    thread_rank: Vec<u32>,
    pub batches_formed: u64,
    // Reusable batch-formation scratch (cleared each use; the maps are
    // never iterated, and `threads` is fully sorted by a total key, so the
    // hasher cannot influence behavior).
    order: Vec<usize>,
    per_pair: HashMap<(u16, u32), usize, FxBuild>,
    per_thread: HashMap<u16, u32, FxBuild>,
    threads: Vec<(u16, u32)>,
    /// Per-tenant scheduling priority (lower wins), installed by the QoS
    /// subsystem. All-zero (the default) contributes a constant to the
    /// selection key, so single-tenant and QoS-off runs are bit-identical
    /// to the pre-QoS scheduler.
    tenant_prio: [u8; MAX_TENANTS],
}

impl Scheduler {
    pub fn new(kind: SchedulerKind) -> Self {
        Scheduler {
            kind,
            marked: HashSet::default(),
            thread_rank: Vec::new(),
            batches_formed: 0,
            order: Vec::new(),
            per_pair: HashMap::default(),
            per_thread: HashMap::default(),
            threads: Vec::new(),
            tenant_prio: [0; MAX_TENANTS],
        }
    }

    /// Install the QoS tenant-priority table (see
    /// [`crate::qos::QosConfig::priorities`]).
    pub fn set_tenant_priorities(&mut self, prio: [u8; MAX_TENANTS]) {
        self.tenant_prio = prio;
    }

    pub fn kind(&self) -> SchedulerKind {
        self.kind
    }

    /// Is this request part of the current batch?
    pub fn is_marked(&self, id: u64) -> bool {
        self.marked.contains(&id)
    }

    /// Shortest-job-first rank of `thread` in the current batch (lower is
    /// higher priority); unmarked threads rank last.
    pub fn rank_of(&self, thread: u16) -> u32 {
        self.thread_rank
            .get(thread as usize)
            .copied()
            .unwrap_or(u32::MAX)
    }

    /// Drop a serviced request from the batch.
    pub fn note_serviced(&mut self, id: u64) {
        self.marked.remove(&id);
    }

    /// Form a new batch if the current one is exhausted (PAR-BS only).
    /// Uses each entry's cached flat μbank index ([`MemRequest::flat`],
    /// stamped by the queue on push).
    ///
    /// [`MemRequest::flat`]: microbank_core::request::MemRequest::flat
    pub fn maybe_form_batch(&mut self, queue: &RequestQueue) {
        let SchedulerKind::ParBs { marking_cap } = self.kind else {
            return;
        };
        if !self.marked.is_empty() {
            return; // batch still in flight (marked ⊆ queued, see invariant)
        }
        self.thread_rank.fill(u32::MAX);
        if queue.is_empty() {
            return;
        }
        // Sort entry indices by age so we mark the oldest per (thread, bank).
        self.order.clear();
        self.order.extend(queue.indices());
        self.order
            .sort_unstable_by_key(|&i| (queue.get(i).arrival, queue.get(i).id));
        self.per_pair.clear();
        self.per_thread.clear();
        for &i in &self.order {
            let r = queue.get(i);
            let pair = (r.thread, r.flat);
            let n = self.per_pair.entry(pair).or_insert(0);
            if *n < marking_cap {
                *n += 1;
                self.marked.insert(r.id);
                *self.per_thread.entry(r.thread).or_insert(0) += 1;
            }
        }
        // Shortest job first: fewest marked requests → rank 0. Sorted by a
        // total key, so the map's iteration order is immaterial.
        self.threads.clear();
        self.threads
            .extend(self.per_thread.iter().map(|(&t, &n)| (t, n)));
        self.threads.sort_unstable_by_key(|&(t, n)| (n, t));
        for (rank, &(t, _)) in self.threads.iter().enumerate() {
            let t = t as usize;
            if t >= self.thread_rank.len() {
                self.thread_rank.resize(t + 1, u32::MAX);
            }
            self.thread_rank[t] = rank as u32;
        }
        self.batches_formed += 1;
    }

    /// Choose the best candidate to issue this cycle. Priority (highest
    /// first): batch-marked, QoS tenant priority, row-hit (Column action),
    /// thread rank, age. The tenant axis sits inside the batch boundary —
    /// PAR-BS's starvation bound survives prioritization — but above
    /// row-hit ordering, so a latency-critical miss beats a batch tenant's
    /// hit; with no priority table installed it is a constant.
    pub fn select<'a>(&self, candidates: &'a [Candidate]) -> Option<&'a Candidate> {
        candidates.iter().min_by_key(|c| {
            let marked = !self.is_marked(c.id); // false (0) sorts first
            let miss = c.action != Action::Column;
            (
                marked,
                self.tenant_prio[tenant_slot(c.tenant)],
                miss,
                self.rank_of(c.thread),
                c.arrival,
                c.id,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microbank_core::address::AddressMap;
    use microbank_core::config::MemConfig;
    use microbank_core::request::{MemRequest, ReqKind};

    fn cfg() -> MemConfig {
        MemConfig::lpddr_tsi().with_queue_size(32)
    }

    fn push(queue: &mut RequestQueue, cfg: &MemConfig, id: u64, thread: u16, addr: u64) {
        let map = AddressMap::new(cfg);
        let mut r = MemRequest::new(id, addr, ReqKind::Read, thread, id);
        r.loc = map.decode(addr);
        let flat = r.loc.ubank_flat(cfg);
        assert!(queue.push(r, flat));
    }

    #[test]
    fn frfcfs_prefers_row_hits_then_age() {
        let s = Scheduler::new(SchedulerKind::FrFcfs);
        let cands = [
            Candidate {
                idx: 0,
                action: Action::Activate,
                id: 0,
                thread: 0,
                arrival: 0,
                tenant: TenantId::default(),
            },
            Candidate {
                idx: 1,
                action: Action::Column,
                id: 1,
                thread: 0,
                arrival: 10,
                tenant: TenantId::default(),
            },
            Candidate {
                idx: 2,
                action: Action::Column,
                id: 2,
                thread: 1,
                arrival: 5,
                tenant: TenantId::default(),
            },
        ];
        let best = s.select(&cands).unwrap();
        assert_eq!(
            best.idx, 2,
            "younger hit beats older miss; older hit beats younger"
        );
    }

    #[test]
    fn parbs_marks_at_most_cap_per_thread_bank() {
        let c = cfg();
        let mut q = RequestQueue::new(&c);
        // 8 requests from one thread to the same bank/row region.
        for i in 0..8u64 {
            push(&mut q, &c, i, 0, i * 64); // iB=13 → same row, same bank
        }
        let mut s = Scheduler::new(SchedulerKind::ParBs { marking_cap: 5 });
        s.maybe_form_batch(&q);
        let marked = q.iter().filter(|r| s.is_marked(r.id)).count();
        assert_eq!(marked, 5);
        assert_eq!(s.batches_formed, 1);
    }

    #[test]
    fn parbs_ranks_light_threads_first() {
        let c = cfg();
        let mut q = RequestQueue::new(&c);
        // Thread 0: four requests to distinct banks; thread 1: one request.
        for i in 0..4u64 {
            push(&mut q, &c, i, 0, i << 20);
        }
        push(&mut q, &c, 99, 1, 5 << 20);
        let mut s = Scheduler::new(SchedulerKind::ParBs { marking_cap: 5 });
        s.maybe_form_batch(&q);
        assert!(s.rank_of(1) < s.rank_of(0), "shortest job first");
    }

    #[test]
    fn batch_persists_until_drained() {
        let c = cfg();
        let mut q = RequestQueue::new(&c);
        push(&mut q, &c, 1, 0, 0);
        let mut s = Scheduler::new(SchedulerKind::ParBs { marking_cap: 5 });
        s.maybe_form_batch(&q);
        assert!(s.is_marked(1));
        // New arrivals do not join the in-flight batch.
        push(&mut q, &c, 2, 1, 1 << 20);
        s.maybe_form_batch(&q);
        assert!(!s.is_marked(2));
        assert_eq!(s.batches_formed, 1);
        // Drain the batch; next call forms a fresh one including id 2.
        let idx = q.indices().find(|&i| q.get(i).id == 1).unwrap();
        q.remove(idx);
        s.note_serviced(1);
        s.maybe_form_batch(&q);
        assert!(s.is_marked(2));
        assert_eq!(s.batches_formed, 2);
    }

    #[test]
    fn marked_requests_outrank_unmarked_hits() {
        let c = cfg();
        let mut q = RequestQueue::new(&c);
        push(&mut q, &c, 1, 0, 0);
        let mut s = Scheduler::new(SchedulerKind::ParBs { marking_cap: 5 });
        s.maybe_form_batch(&q);
        let cands = [
            // Unmarked row hit (arrived after the batch formed)…
            Candidate {
                idx: 5,
                action: Action::Column,
                id: 42,
                thread: 3,
                arrival: 100,
                tenant: TenantId::default(),
            },
            // …vs a marked activate.
            Candidate {
                idx: 0,
                action: Action::Activate,
                id: 1,
                thread: 0,
                arrival: 0,
                tenant: TenantId::default(),
            },
        ];
        assert_eq!(s.select(&cands).unwrap().id, 1);
    }

    #[test]
    fn frfcfs_never_marks() {
        let c = cfg();
        let mut q = RequestQueue::new(&c);
        push(&mut q, &c, 1, 0, 0);
        let mut s = Scheduler::new(SchedulerKind::FrFcfs);
        s.maybe_form_batch(&q);
        assert!(!s.is_marked(1));
        assert_eq!(s.batches_formed, 0);
    }
}
