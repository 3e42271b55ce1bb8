//! The command-generation engine: one memory controller driving one
//! channel (§VI-A: 16 controllers, one 16 GB/s channel each, 32-entry
//! request queues, PAR-BS scheduling, open-page policy by default).
//!
//! Each [`MemoryController::tick`] issues at most one DRAM command, chosen
//! in priority order: refresh management, then the scheduler's best demand
//! command, then policy-driven speculative precharges.

use crate::policy::{Policy, PolicyKind};
use crate::predictor::{PageDecision, PredictorStats};
use crate::qos::{QosConfig, QosRegulator};
use crate::queue::RequestQueue;
use crate::scheduler::{Action, Candidate, Scheduler, SchedulerKind};
use microbank_core::address::AddressMap;
use microbank_core::channel::Channel;
use microbank_core::config::MemConfig;
use microbank_core::request::{MemRequest, TenantId};
use microbank_core::Cycle;
use microbank_faults::{AccessVerdict, FaultConfig, FaultEngine};
use microbank_telemetry::{CmdKind, CmdRecord, CmdTrace};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

/// A finished memory request, reported back to the CPU model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    pub id: u64,
    /// Cycle the data transfer finished (reads) or data was latched
    /// (writes). NoC return latency is added by the CPU side.
    pub at: Cycle,
    pub is_write: bool,
    pub thread: u16,
    /// Owning tenant (carried from the request) — lets the drive loops
    /// attribute read latency per tenant without an id side-table.
    pub tenant: TenantId,
}

/// Controller-level statistics (queue behaviour and policy accuracy).
#[derive(Debug, Clone, Default)]
pub struct CtrlStats {
    pub served_reads: u64,
    pub served_writes: u64,
    /// Enqueue attempts rejected because the queue was full.
    pub rejected: u64,
    /// Sum of queue occupancy over tick calls (for the §V queue-occupancy
    /// argument: μbanks drain queues, starving conventional policies).
    pub occupancy_acc: u64,
    pub tick_calls: u64,
    /// Speculative page decisions made (queue empty for the bank, §V).
    pub speculative_decisions: u64,
    /// Accuracy of the active page policy's speculative decisions,
    /// including static open/close treated as constant predictors (the
    /// Fig. 13 "prediction hit rate" series).
    pub policy_stats: PredictorStats,
    /// Scheduling rounds in which write-drain mode constrained selection.
    pub drain_selections: u64,
    /// Queue-occupancy distribution sampled every tick. §V's argument is
    /// exactly about this distribution: μbanks spread requests over more
    /// banks and drain queues faster, starving conventional policies of
    /// the pending requests they need.
    pub occupancy_hist: microbank_core::hist::Histogram,
}

impl CtrlStats {
    pub fn mean_queue_occupancy(&self) -> f64 {
        if self.tick_calls == 0 {
            0.0
        } else {
            self.occupancy_acc as f64 / self.tick_calls as f64
        }
    }
}

/// Speculative decision awaiting resolution by the next request to the bank.
#[derive(Debug, Clone, Copy)]
struct PendingDecision {
    predicted: PageDecision,
    row: u32,
    thread: u16,
}

/// Write-drain watermarks: when the number of queued writes reaches `hi`,
/// the controller prioritizes writes until it falls to `lo`. Batching
/// writes amortizes the read↔write bus turnaround (tWTR) that fine-grained
/// interleaving pays on every switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteDrain {
    pub hi: usize,
    pub lo: usize,
}

impl WriteDrain {
    /// Watermarks scaled to the paper's 32-entry queue.
    pub fn default_for_queue(queue_size: usize) -> Self {
        WriteDrain {
            hi: (queue_size * 3) / 4,
            lo: queue_size / 4,
        }
    }
}

/// One memory controller + its channel.
pub struct MemoryController {
    pub cfg: MemConfig,
    pub channel: Channel,
    map: AddressMap,
    queue: RequestQueue,
    scheduler: Scheduler,
    policy: Policy,
    /// Optional write-drain watermark mode.
    write_drain: Option<WriteDrain>,
    /// Currently draining writes.
    draining_writes: bool,
    /// Per-μbank pending speculative decision.
    pending: Vec<Option<PendingDecision>>,
    /// Per-μbank page-policy close deadline (`Cycle::MAX` = none): a close
    /// decision arms `now`, minimalist-open arms `now + window`.
    close_deadline: Vec<Cycle>,
    /// Flats whose close deadline has elapsed and been promoted from
    /// `deadline_heap`: the policy precharges currently due. A BTreeSet so
    /// idle-slot service walks due flats in ascending flat order.
    pre_due: BTreeSet<usize>,
    /// Min-heap of pending (deadline, flat) pairs feeding `pre_due`. An
    /// entry is stale unless `close_deadline[flat]` still equals its
    /// deadline (cleared or re-armed deadlines are dropped lazily on pop).
    deadline_heap: BinaryHeap<Reverse<(Cycle, usize)>>,
    /// Ranks currently being drained for refresh.
    refresh_draining: Vec<bool>,
    completions: Vec<Completion>,
    scratch: Vec<Candidate>,
    pub stats: CtrlStats,
    /// This controller's channel index, stamped into trace records.
    channel_id: u16,
    /// Bounded command trace; `None` (the default) costs one branch per
    /// issued command.
    pub trace: Option<Box<CmdTrace>>,
    /// Reliability engine (fault injection / ECC / scrub / degradation);
    /// `None` (the default) keeps the hot path golden-identical.
    pub faults: Option<Box<FaultEngine>>,
    /// Multi-tenant QoS regulator (token-bucket bandwidth regulation +
    /// per-tenant accounting); `None` (the default) keeps the hot path
    /// golden-identical.
    pub qos: Option<Box<QosRegulator>>,
}

impl MemoryController {
    pub fn new(
        cfg: &MemConfig,
        scheduler: SchedulerKind,
        policy: PolicyKind,
        threads: usize,
    ) -> Self {
        let n = cfg.ubanks_per_channel();
        MemoryController {
            cfg: cfg.clone(),
            channel: Channel::new(cfg),
            map: AddressMap::new(cfg),
            queue: RequestQueue::new(cfg),
            scheduler: Scheduler::new(scheduler),
            policy: Policy::new(policy, n, threads),
            write_drain: None,
            draining_writes: false,
            pending: vec![None; n],
            close_deadline: vec![Cycle::MAX; n],
            pre_due: BTreeSet::new(),
            deadline_heap: BinaryHeap::new(),
            refresh_draining: vec![false; cfg.ranks_per_channel],
            completions: Vec::new(),
            scratch: Vec::new(),
            stats: CtrlStats::default(),
            channel_id: 0,
            trace: None,
            faults: None,
            qos: None,
        }
    }

    /// Attach the reliability engine for this controller's channel
    /// (deterministically seeded from the master fault seed + `channel`).
    pub fn enable_faults(&mut self, fc: &FaultConfig, channel: usize) {
        self.faults = Some(Box::new(FaultEngine::new(&self.cfg, fc, channel)));
    }

    /// Attach the multi-tenant QoS regulator and install its tenant
    /// priorities into the scheduler. Budget domains are sized to this
    /// controller's flat μbank count.
    pub fn enable_qos(&mut self, qc: &QosConfig) {
        self.scheduler.set_tenant_priorities(qc.priorities());
        self.qos = Some(Box::new(QosRegulator::new(
            qc.clone(),
            self.cfg.ubanks_per_channel(),
        )));
    }

    /// Columns served per tenant slot so far (whole run); all-zero when
    /// QoS accounting is not armed. Drive loops diff this across epoch
    /// boundaries for the per-tenant timeline columns.
    pub fn tenant_cols(&self) -> [u64; crate::qos::MAX_TENANTS] {
        self.qos
            .as_ref()
            .map(|q| q.stats.served_cols)
            .unwrap_or_default()
    }

    /// Enable command tracing into a ring of `capacity` records, stamping
    /// records with `channel_id`, and attach per-μbank heat counters to
    /// the channel.
    pub fn enable_telemetry(&mut self, channel_id: u16, trace_capacity: usize) {
        self.channel_id = channel_id;
        if trace_capacity > 0 {
            self.trace = Some(Box::new(CmdTrace::new(trace_capacity)));
        }
        self.channel.enable_telemetry();
    }

    #[inline]
    fn trace_cmd(&mut self, cycle: Cycle, cmd: CmdKind, ubank: usize, row: u32) {
        if let Some(trace) = &mut self.trace {
            trace.push(CmdRecord {
                cycle,
                channel: self.channel_id,
                cmd,
                ubank: ubank as u32,
                row,
                queue_len: self.queue.len() as u16,
            });
        }
    }

    /// Enable write-drain watermark scheduling (see [`WriteDrain`]).
    pub fn with_write_drain(mut self, wd: WriteDrain) -> Self {
        assert!(wd.lo < wd.hi && wd.hi <= self.queue.capacity());
        self.write_drain = Some(wd);
        self
    }

    /// The controller's address map (shared decode logic).
    pub fn map(&self) -> &AddressMap {
        &self.map
    }

    /// Free queue slots.
    pub fn free_slots(&self) -> usize {
        self.queue.capacity() - self.queue.len()
    }

    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Try to accept a request whose `loc` is already decoded for this
    /// channel. Returns `false` if the queue is full.
    pub fn enqueue(&mut self, mut req: MemRequest, now: Cycle) -> bool {
        if self.queue.is_full() {
            self.stats.rejected += 1;
            return false;
        }
        req.arrival = now;
        // Graceful degradation: steer the request around retired
        // μbanks/rows before anything keys off its coordinates. Remapping
        // happens once, at enqueue, so in-flight requests are stable.
        if let Some(eng) = &self.faults {
            eng.remap_loc(&mut req.loc);
        }
        let flat = req.loc.ubank_flat(&self.cfg);
        // Resolve a pending speculative decision for this bank: the correct
        // choice was "keep open" iff this request hits the recorded row.
        if let Some(p) = self.pending[flat].take() {
            let outcome = if req.loc.row == p.row {
                PageDecision::KeepOpen
            } else {
                PageDecision::Close
            };
            let correct = self.policy.resolve(flat, p.thread, p.predicted, outcome);
            self.stats.policy_stats.record(correct);
            // The perfect oracle converts a would-be conflict into an
            // already-precharged bank when legal. This retroactive PRE is
            // the one precharge that bypasses `issue`: it never occupies
            // the command bus and is not traced.
            if outcome == PageDecision::Close && self.policy.is_oracle() {
                self.channel.oracle_precharge_flat(flat, now);
            }
        }
        // Row-buffer outcome classification (hit/closed/conflict) at
        // arrival, the standard accounting the energy model consumes.
        // The channel owns it so stats and heat counters update together.
        self.channel.classify_arrival(flat, req.loc.row);
        self.queue.push(req, flat);
        true
    }

    /// Drain completions accumulated since the last call.
    pub fn take_completions(&mut self, out: &mut Vec<Completion>) {
        out.append(&mut self.completions);
    }

    /// Advance the controller at `now`, issuing at most one DRAM command.
    pub fn tick(&mut self, now: Cycle) {
        self.stats.tick_calls += 1;
        self.stats.occupancy_acc += self.queue.len() as u64;
        self.stats.occupancy_hist.record(self.queue.len() as u64);

        // Rank power management (no-op unless configured).
        if let Some(idle) = self.cfg.powerdown_idle {
            for rank in 0..self.refresh_draining.len() {
                let work =
                    self.queue.pending_for_rank(rank) > 0 || self.channel.refresh_due(rank, now);
                // An idle rank with speculatively-open rows (open-page
                // policy) is precharged with one PREA so CKE can drop.
                if !work
                    && self.channel.rank_idle_for(rank, now) >= idle
                    && !self.channel.rank_all_idle(rank)
                    && self.channel.can_precharge_all(rank, now)
                {
                    self.issue(CmdKind::PreA, rank, 0, now);
                }
                self.channel.update_powerdown(rank, now, work);
            }
        }

        if self.service_refresh(now) {
            return;
        }
        if self.service_queue(now) {
            return;
        }
        if self.service_scrub(now) {
            return;
        }
        self.service_policy_precharges(now);
    }

    /// Put one command on the channel's command bus: the only place the
    /// controller mutates channel command state or records a trace entry.
    /// `at` is the flat μbank, or the rank for PREA and REF; `row` is the
    /// row an ACT opens, a column command accesses or a scrub restores
    /// (PRE and PREA record the row each closed μbank held, REF records
    /// 0). Opening or closing a row disarms that μbank's page-policy close
    /// deadline. Returns the data-end cycle of RD/WR, else `now`.
    fn issue(&mut self, cmd: CmdKind, at: usize, row: u32, now: Cycle) -> Cycle {
        let (mut ubank, mut row, mut done) = (at, row, now);
        match cmd {
            CmdKind::Act => {
                self.channel.activate_flat(at, row, now);
                self.disarm(at);
            }
            CmdKind::Pre => {
                row = self.channel.open_row_flat(at).unwrap_or(0);
                self.channel.precharge_flat(at, now);
                self.disarm(at);
            }
            CmdKind::PreA => {
                // One record per μbank actually closed, each with its open
                // row (the scan is guarded so an untraced run never pays).
                let (lo, hi) = self.rank_flats(at);
                if self.trace.is_some() {
                    for flat in lo..hi {
                        if let Some(open) = self.channel.open_row_flat(flat) {
                            self.trace_cmd(now, cmd, flat, open);
                        }
                    }
                }
                self.channel.precharge_all(at, now);
                self.close_deadline[lo..hi].fill(Cycle::MAX);
                while let Some(&flat) = self.pre_due.range(lo..hi).next() {
                    self.pre_due.remove(&flat);
                }
                return now;
            }
            CmdKind::Ref => {
                self.channel.refresh(at, now);
                ubank = self.rank_flats(at).0;
            }
            CmdKind::Rd => done = self.channel.read_flat(at, now),
            CmdKind::Wr => done = self.channel.write_flat(at, now),
            CmdKind::Scrub => self.channel.scrub_flat(at, now),
        }
        self.trace_cmd(now, cmd, ubank, row);
        done
    }

    /// Flat μbank range `[lo, hi)` of `rank`.
    fn rank_flats(&self, rank: usize) -> (usize, usize) {
        let per_rank = self.channel.num_ubanks() / self.refresh_draining.len();
        (rank * per_rank, (rank + 1) * per_rank)
    }

    /// Drop μbank `flat`'s page-policy close deadline, due or pending.
    /// Stale `deadline_heap` entries are dropped lazily by the
    /// `close_deadline` equality check.
    fn disarm(&mut self, flat: usize) {
        self.close_deadline[flat] = Cycle::MAX;
        self.pre_due.remove(&flat);
    }

    /// Arm μbank `flat`'s page-policy close deadline, superseding any
    /// earlier one (due or pending).
    fn arm_close(&mut self, flat: usize, deadline: Cycle) {
        self.close_deadline[flat] = deadline;
        self.deadline_heap.push(Reverse((deadline, flat)));
        self.pre_due.remove(&flat);
    }

    /// Refresh management: when a rank's tREFI deadline passes, drain its
    /// open banks with PREs and issue the REF. Returns true if a command
    /// was issued.
    fn service_refresh(&mut self, now: Cycle) -> bool {
        for rank in 0..self.refresh_draining.len() {
            if self.channel.refresh_due(rank, now) {
                self.refresh_draining[rank] = true;
            }
            if !self.refresh_draining[rank] {
                continue;
            }
            if self.channel.rank_all_idle(rank) {
                self.issue(CmdKind::Ref, rank, 0, now);
                self.refresh_draining[rank] = false;
                return true;
            }
            // Drain with one PREA once every open bank may precharge.
            if self.channel.can_precharge_all(rank, now) {
                self.issue(CmdKind::PreA, rank, 0, now);
                return true;
            }
        }
        false
    }

    /// Demand scheduling. Returns true if a command was issued.
    fn service_queue(&mut self, now: Cycle) -> bool {
        if self.queue.is_empty() {
            return false;
        }
        self.scheduler.maybe_form_batch(&self.queue);

        self.scratch.clear();
        for idx in self.queue.indices() {
            let r = self.queue.get(idx);
            let flat = r.flat as usize;
            let rank = r.loc.rank as usize;
            if self.refresh_draining[rank] {
                continue;
            }
            let action = match self.channel.open_row_flat(flat) {
                Some(open) if open == r.loc.row => self
                    .channel
                    .can_column_flat(flat, open, r.is_write(), now)
                    .then_some(Action::Column),
                // A conflicting row in the request's own μbank, or a
                // sibling's row the device variant's structural rules put
                // in the way of this ACT (DESIGN §5h).
                Some(_) => self
                    .may_close(flat, now)
                    .then_some(Action::Precharge(flat as u32)),
                None => match self.channel.act_blocker(flat, r.loc.row) {
                    Some(victim) => self
                        .may_close(victim, now)
                        .then_some(Action::Precharge(victim as u32)),
                    None => self
                        .channel
                        .can_activate_flat(flat, now)
                        .then_some(Action::Activate),
                },
            };
            if let Some(action) = action {
                self.scratch.push(Candidate {
                    idx,
                    action,
                    id: r.id,
                    thread: r.thread,
                    arrival: r.arrival,
                    tenant: r.tenant,
                });
            }
        }
        // Write-drain watermark mode: batch writes to amortize tWTR.
        if let Some(wd) = self.write_drain {
            let writes = self.queue.writes_queued();
            if writes >= wd.hi {
                self.draining_writes = true;
            } else if writes <= wd.lo {
                self.draining_writes = false;
            }
            if self.draining_writes {
                let has_write_candidate = self
                    .scratch
                    .iter()
                    .any(|c| self.queue.get(c.idx).is_write());
                if has_write_candidate {
                    self.scratch.retain(|c| self.queue.get(c.idx).is_write());
                    self.stats.drain_selections += 1;
                }
            }
        }
        // QoS bandwidth regulation: candidates whose tenant's bucket is
        // empty are withheld from this round. If that would leave the
        // channel idle while demand is eligible and the configuration is
        // work-conserving, the throttled candidates are re-admitted — the
        // issue below is then charged to reclaim, not the bucket.
        if let Some(q) = &mut self.qos {
            if q.regulating() && !self.scratch.is_empty() {
                let queue = &self.queue;
                let any_token = self
                    .scratch
                    .iter()
                    .any(|c| q.has_token(c.tenant, queue.get(c.idx).flat, now));
                if any_token {
                    self.scratch.retain(|c| {
                        let ok = q.has_token(c.tenant, queue.get(c.idx).flat, now);
                        if !ok {
                            q.note_throttled(c.tenant);
                        }
                        ok
                    });
                } else if !q.config().work_conserving {
                    for c in &self.scratch {
                        q.note_throttled(c.tenant);
                    }
                    self.scratch.clear();
                }
            }
        }
        let Some(best) = self.scheduler.select(&self.scratch).copied() else {
            return false;
        };
        let r = *self.queue.get(best.idx);
        let flat = r.flat as usize;
        match best.action {
            Action::Activate => {
                self.issue(CmdKind::Act, flat, r.loc.row, now);
            }
            Action::Precharge(target) => {
                self.issue(CmdKind::Pre, target as usize, 0, now);
            }
            Action::Column => {
                let kind = if r.is_write() {
                    CmdKind::Wr
                } else {
                    CmdKind::Rd
                };
                let done = self.issue(kind, flat, r.loc.row, now);
                // Reliability: assess the read's ECC outcome. A corrected
                // error triggers one demand retry — the burst above was
                // spent (timing/energy already charged), but the request
                // stays queued and is re-issued before completing.
                if !r.is_write() {
                    if let Some(eng) = &mut self.faults {
                        let age = self.channel.refresh_age_frac(r.loc.rank as usize, now);
                        let before = eng.summary.corrected;
                        let verdict = eng.assess_demand_read(r.flat, r.loc.row, age, r.retried);
                        let corrected = eng.summary.corrected - before;
                        if corrected > 0 {
                            if let Some(tel) = &mut self.channel.telemetry {
                                tel.heat.corrected[flat] += corrected;
                            }
                        }
                        if verdict == AccessVerdict::Retry {
                            self.queue.mark_retried(best.idx);
                            return true;
                        }
                        // Uncorrectable reads still complete: the data
                        // loss is modeled by the retirement the engine
                        // just applied, not by stalling the machine.
                    }
                }
                self.queue.remove(best.idx);
                self.scheduler.note_serviced(r.id);
                if r.is_write() {
                    self.stats.served_writes += 1;
                } else {
                    self.stats.served_reads += 1;
                }
                // Per-tenant accounting + token charge (an over-budget
                // issue — only reachable through work-conserving reclaim —
                // is recorded as a reclaim, never as bucket spend). ECC
                // demand-retry bursts are not charged: only the completing
                // burst pays a token.
                if let Some(q) = &mut self.qos {
                    q.spend(r.tenant, r.flat, now, !r.is_write());
                }
                self.completions.push(Completion {
                    id: r.id,
                    at: done,
                    is_write: r.is_write(),
                    thread: r.thread,
                    tenant: r.tenant,
                });
                // Speculative page management: only when the queue holds no
                // further request for this bank (§V).
                if self.queue.pending_for_bank(flat) == 0 {
                    self.speculate(flat, r.loc.row, r.thread, now);
                }
                // The assessment above may have retired this μbank (an
                // uncorrectable error escalates through the degradation
                // ladder). Any policy state left armed for it — including
                // the close deadline `speculate` may have just re-armed —
                // targets a μbank that no longer exists.
                if self
                    .faults
                    .as_deref()
                    .is_some_and(|e| e.degrade.is_ubank_retired(r.flat))
                {
                    self.clear_retired_policy_state(flat);
                }
            }
        }
        true
    }

    /// May μbank `flat`'s open row be precharged now? Not while a queued
    /// request still hits it: hits are served before a row closes.
    fn may_close(&self, flat: usize, now: Cycle) -> bool {
        self.channel.open_row_flat(flat).is_some_and(|open| {
            !self.queue.any_hit_for(flat, open) && self.channel.can_precharge_flat(flat, now)
        })
    }

    /// Drop page-policy state still armed for a μbank the reliability
    /// engine just retired: the pending decision and the close deadline.
    /// Without this, a stale deadline promotes the dead μbank back into
    /// `pre_due`, where it keeps the controller awake for a precharge that
    /// can never issue.
    fn clear_retired_policy_state(&mut self, flat: usize) {
        self.pending[flat] = None;
        self.disarm(flat);
    }

    /// Patrol scrubbing on otherwise-idle command slots: background
    /// priority, after demand scheduling and before policy precharges.
    /// Issues at most one command — either the `Scrub` itself or a PRE
    /// clearing the target μbank's open row (only when no queued request
    /// still wants that row). Returns true if a command was issued.
    fn service_scrub(&mut self, now: Cycle) -> bool {
        // Pick the scrub target, walking the cursor past retired
        // (μbank, row) pairs for free: those cells no longer exist.
        // Degradation guarantees at least one live row in one live μbank,
        // so the walk terminates.
        let Some((flat, row)) = self.faults.as_deref_mut().and_then(|eng| {
            if !matches!(&eng.scrub, Some(s) if s.due(now)) {
                return None;
            }
            loop {
                let t = eng.scrub.as_ref().unwrap().target();
                if !eng.is_retired(t.0, t.1) {
                    return Some(t);
                }
                eng.scrub.as_mut().unwrap().skip();
            }
        }) else {
            return false;
        };
        let flat_us = flat as usize;
        let rank = flat_us / (self.cfg.ubanks_per_channel() / self.cfg.ranks_per_channel);
        if self.refresh_draining[rank] {
            return false;
        }
        if self.channel.open_row_flat(flat_us).is_some() {
            // The target holds an open row: close it on this idle slot
            // unless demand traffic still wants it.
            if self.may_close(flat_us, now) {
                self.issue(CmdKind::Pre, flat_us, 0, now);
                return true;
            }
            return false;
        }
        if !self.channel.can_scrub_flat(flat_us, now) {
            return false;
        }
        self.issue(CmdKind::Scrub, flat_us, row, now);
        let age = self.channel.refresh_age_frac(rank, now);
        let eng = self.faults.as_deref_mut().unwrap();
        let before = eng.summary.corrected;
        eng.assess_scrub(flat, row, age);
        let corrected = eng.summary.corrected - before;
        eng.scrub.as_mut().unwrap().issued(now);
        let retired = eng.degrade.is_ubank_retired(flat);
        if corrected > 0 {
            if let Some(tel) = &mut self.channel.telemetry {
                tel.heat.corrected[flat_us] += corrected;
            }
        }
        if retired {
            self.clear_retired_policy_state(flat_us);
        }
        true
    }

    /// Apply the page policy to a bank whose queue just drained.
    fn speculate(&mut self, flat: usize, row: u32, thread: u16, now: Cycle) {
        self.stats.speculative_decisions += 1;
        let (predicted, close_after) = self.policy.decide(flat, thread);
        if let Some(after) = close_after {
            self.arm_close(flat, now + after);
        }
        self.pending[flat] = Some(PendingDecision {
            predicted,
            row,
            thread,
        });
    }

    /// Issue policy-driven precharges on otherwise idle command slots.
    /// Walks only the due set (lowest flat first, matching the old full
    /// scan) instead of every μbank in the channel.
    fn service_policy_precharges(&mut self, now: Cycle) {
        // Promote elapsed deadlines into the due set, dropping entries
        // whose deadline was cleared or re-armed since they were pushed.
        while let Some(&Reverse((deadline, flat))) = self.deadline_heap.peek() {
            if deadline > now {
                break;
            }
            self.deadline_heap.pop();
            if self.close_deadline[flat] == deadline {
                self.pre_due.insert(flat);
            }
        }
        let Some(flat) = self
            .pre_due
            .iter()
            .copied()
            .find(|&f| self.channel.can_precharge_flat(f, now))
        else {
            return;
        };
        self.issue(CmdKind::Pre, flat, 0, now);
    }

    /// Wake cycle of a provably idle controller: `None` unless the queue
    /// is empty, no policy precharge is due and rank power-down is off.
    /// Then every `tick` strictly before the returned cycle only does
    /// stats accounting (replayed in bulk by
    /// [`MemoryController::account_idle_ticks`]), because the only events
    /// left are the next refresh deadline, the earliest armed close
    /// deadline and the patrol scrubber's next due cycle (DESIGN §5f).
    /// A rank still draining for refresh has its deadline at or before
    /// now, so it wakes at once; a stale heap top (its deadline cleared
    /// or re-armed) only wakes the controller early.
    /// `Cycle::MAX` means nothing is pending; a wake at or before the
    /// current cycle means "tick the next slot". An `enqueue` ends the
    /// sleep: callers must tick the controller again after one.
    pub fn idle_until(&self) -> Option<Cycle> {
        if !self.queue.is_empty() || self.cfg.powerdown_idle.is_some() || !self.pre_due.is_empty() {
            return None;
        }
        let refresh =
            (0..self.refresh_draining.len()).filter_map(|r| self.channel.next_refresh_at(r));
        let close = self.deadline_heap.peek().map(|Reverse((at, _))| *at);
        let scrub = self
            .faults
            .as_deref()
            .and_then(|e| e.scrub.as_ref())
            .map(|s| s.next_due());
        refresh.chain(close).chain(scrub).min().or(Some(Cycle::MAX))
    }

    /// Account `n` tick calls a sleeping controller skipped: the same
    /// stats effect as `n` real `tick` calls on its empty queue.
    pub fn account_idle_ticks(&mut self, n: u64) {
        debug_assert!(
            n == 0 || self.queue.is_empty(),
            "idle accounting on a busy queue"
        );
        self.stats.tick_calls += n;
        self.stats.occupancy_hist.record_n(0, n);
    }

    /// The policy's speculative-decision hit rate (Fig. 13 right axis).
    pub fn policy_hit_rate(&self) -> f64 {
        self.stats.policy_stats.hit_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::PredictorKind;
    use microbank_core::request::ReqKind;

    fn cfg(nw: usize, nb: usize) -> MemConfig {
        MemConfig::lpddr_tsi()
            .with_ubanks(nw, nb)
            .with_channels(1)
            .with_refresh(false)
    }

    fn ctrl(cfg: &MemConfig, policy: PolicyKind) -> MemoryController {
        MemoryController::new(cfg, SchedulerKind::default(), policy, 4)
    }

    fn mkreq(c: &MemoryController, id: u64, addr: u64, kind: ReqKind, thread: u16) -> MemRequest {
        let mut r = MemRequest::new(id, addr, kind, thread, 0);
        r.loc = c.map().decode(addr);
        r
    }

    /// Run the controller until `n` completions have been collected.
    fn run_until(c: &mut MemoryController, n: usize, limit: Cycle) -> Vec<Completion> {
        let mut done = Vec::new();
        let mut now = 0;
        while done.len() < n && now < limit {
            c.tick(now);
            c.take_completions(&mut done);
            now += 1;
        }
        assert!(
            done.len() >= n,
            "only {} of {n} completed by {limit}",
            done.len()
        );
        done
    }

    /// A request with a hand-crafted device coordinate (the address-map
    /// decode is bypassed so tests can target a specific sibling μbank).
    fn mkreq_at(id: u64, bank: u8, w: u8, b: u8, row: u32, kind: ReqKind) -> MemRequest {
        let mut r = MemRequest::new(id, 0, kind, 0, 0);
        r.loc = microbank_core::address::Location {
            channel: 0,
            rank: 0,
            bank,
            w,
            b,
            row,
            col: 0,
        };
        r
    }

    #[test]
    fn salp1_precharges_victim_to_unblock_sibling_subarray() {
        use microbank_core::variant::{DeviceVariant, SalpMode};
        let cf = MemConfig::lpddr_tsi()
            .with_variant(DeviceVariant::Salp {
                subarrays: 2,
                mode: SalpMode::Salp1,
            })
            .with_channels(1)
            .with_refresh(false);
        let mut c = ctrl(&cf, PolicyKind::Open);
        // Open subarray 0's row, then demand a row in subarray 1 of the
        // same bank. SALP-1 allows one open row per bank: the controller
        // must precharge the first subarray (the victim) before the second
        // can activate.
        c.enqueue(mkreq_at(1, 0, 0, 0, 7, ReqKind::Read), 0);
        let _ = run_until(&mut c, 1, 10_000);
        assert_eq!(c.channel.stats.precharges, 0, "open policy keeps row 7");
        c.enqueue(mkreq_at(2, 0, 0, 1, 3, ReqKind::Read), 10_000);
        let mut done = Vec::new();
        let mut now = 10_000;
        while done.is_empty() && now < 30_000 {
            c.tick(now);
            c.take_completions(&mut done);
            now += 1;
        }
        assert_eq!(done.len(), 1, "blocked request must complete");
        assert!(
            c.channel.stats.precharges >= 1,
            "victim precharge must have been issued"
        );
        let f0 = 0usize; // bank 0, subarray 0 is flat 0
        assert_eq!(c.channel.open_row_flat(f0), None, "victim was closed");
    }

    #[test]
    fn sectored_appends_same_row_without_precharge() {
        use microbank_core::variant::DeviceVariant;
        let cf = MemConfig::lpddr_tsi()
            .with_variant(DeviceVariant::Sectored {
                sectors: 16,
                sectors_per_act: 8,
            })
            .with_channels(1)
            .with_refresh(false);
        let mut c = ctrl(&cf, PolicyKind::Open);
        // Same row, both wordline groups: the second ACT appends sectors
        // without closing the first (shared decoder already at row 5).
        c.enqueue(mkreq_at(1, 0, 0, 0, 5, ReqKind::Read), 0);
        c.enqueue(mkreq_at(2, 0, 1, 0, 5, ReqKind::Read), 0);
        let _ = run_until(&mut c, 2, 20_000);
        assert_eq!(c.channel.stats.activates, 2);
        assert_eq!(c.channel.stats.precharges, 0, "append must not precharge");
    }

    #[test]
    fn sectored_closes_decoder_victim_for_a_different_row() {
        use microbank_core::variant::DeviceVariant;
        let cf = MemConfig::lpddr_tsi()
            .with_variant(DeviceVariant::Sectored {
                sectors: 16,
                sectors_per_act: 8,
            })
            .with_channels(1)
            .with_refresh(false);
        let mut c = ctrl(&cf, PolicyKind::Open);
        c.enqueue(mkreq_at(1, 0, 0, 0, 5, ReqKind::Read), 0);
        let _ = run_until(&mut c, 1, 10_000);
        // Different row in the sibling group: the shared row decoder is
        // held at row 5, so the open sector must be precharged first.
        c.enqueue(mkreq_at(2, 0, 1, 0, 6, ReqKind::Read), 10_000);
        let mut done = Vec::new();
        let mut now = 10_000;
        while done.is_empty() && now < 30_000 {
            c.tick(now);
            c.take_completions(&mut done);
            now += 1;
        }
        assert_eq!(done.len(), 1);
        assert!(c.channel.stats.precharges >= 1);
        assert_eq!(c.channel.open_row_flat(0), None, "row-5 sector closed");
        assert_eq!(c.channel.open_row_flat(1), Some(6));
    }

    #[test]
    fn single_read_completes_with_closed_bank_latency() {
        let cf = cfg(1, 1);
        let mut c = ctrl(&cf, PolicyKind::Open);
        let r = mkreq(&c, 1, 0x40, ReqKind::Read, 0);
        assert!(c.enqueue(r, 0));
        let done = run_until(&mut c, 1, 10_000);
        let t = cf.timings();
        // ACT at t=0, RD at tRCD, data at tRCD + tAA + tBURST.
        assert_eq!(done[0].at, t.t_rcd + t.t_aa + t.t_burst);
        assert_eq!(c.stats.served_reads, 1);
    }

    #[test]
    fn row_hit_is_faster_than_row_miss() {
        let cf = cfg(1, 1);
        let mut c = ctrl(&cf, PolicyKind::Open);
        // Two reads to the same row (iB = 13: consecutive lines share a row).
        c.enqueue(mkreq(&c, 1, 0x0, ReqKind::Read, 0), 0);
        c.enqueue(mkreq(&c, 2, 0x40, ReqKind::Read, 0), 0);
        let done = run_until(&mut c, 2, 10_000);
        let t = cf.timings();
        let gap = done[1].at - done[0].at;
        assert!(
            gap <= t.t_ccd.max(t.t_burst) + t.t_cmd,
            "hit gap {gap} too large"
        );
        assert_eq!(
            c.channel.stats.activates, 1,
            "second access must not re-activate"
        );
    }

    #[test]
    fn open_policy_keeps_row_open_close_policy_precharges() {
        for (policy, want_idle) in [(PolicyKind::Open, false), (PolicyKind::Close, true)] {
            let cf = cfg(1, 1);
            let mut c = ctrl(&cf, policy);
            c.enqueue(mkreq(&c, 1, 0x0, ReqKind::Read, 0), 0);
            let _ = run_until(&mut c, 1, 10_000);
            // Give the close policy time to issue its speculative PRE.
            for now in 10_000..11_000 {
                c.tick(now);
            }
            let flat = c.map().decode(0).ubank_flat(&cf);
            assert_eq!(c.channel.ubank(flat).is_idle(), want_idle, "{policy:?}");
        }
    }

    /// Mean access latency (completion − enqueue) for `n` serialized
    /// requests from `pattern`, with an idle `gap` after each completion so
    /// tRC never binds and the speculative page decision is what matters.
    fn mean_latency(
        cf: &MemConfig,
        policy: PolicyKind,
        pattern: impl Fn(u64) -> u64,
        n: u64,
        gap: Cycle,
    ) -> f64 {
        let mut c = ctrl(cf, policy);
        let mut now: Cycle = 0;
        let mut total: u64 = 0;
        for i in 0..n {
            let r = mkreq(&c, i, pattern(i), ReqKind::Read, 0);
            let issued_at = now;
            assert!(c.enqueue(r, now));
            let mut done: Vec<Completion> = Vec::new();
            while done.is_empty() {
                c.tick(now);
                c.take_completions(&mut done);
                now += 1;
                assert!(now < issued_at + 100_000, "request {i} stuck");
            }
            total += done[0].at - issued_at;
            // Idle gap: lets the policy's speculative PRE (if any) land.
            let resume = done[0].at.max(now) + gap;
            while now < resume {
                c.tick(now);
                now += 1;
            }
        }
        total as f64 / n as f64
    }

    #[test]
    fn close_policy_wins_on_alternating_rows() {
        // Alternating rows in one bank: close-page precharges during the
        // gap, so each access pays ACT+RD only; open-page pays PRE too.
        let cf = cfg(1, 1);
        let alt = |i: u64| (i % 2) * (1 << 16) + (i / 2 % 8) * 64; // rows 0/1, bank 0
        let open = mean_latency(&cf, PolicyKind::Open, alt, 64, 300);
        let close = mean_latency(&cf, PolicyKind::Close, alt, 64, 300);
        let t = cf.timings();
        assert!(close + 2.0 < open, "close {close} !< open {open}");
        assert!((open - close) > 0.8 * t.t_rp as f64, "gap {}", open - close);
    }

    #[test]
    fn open_policy_wins_on_row_streams() {
        let cf = cfg(1, 1);
        let stream = |i: u64| (i % 32) * 64; // one row, bank 0
        let open = mean_latency(&cf, PolicyKind::Open, stream, 64, 300);
        let close = mean_latency(&cf, PolicyKind::Close, stream, 64, 300);
        let t = cf.timings();
        assert!(open + 2.0 < close, "open {open} !< close {close}");
        assert!(
            (close - open) > 0.8 * t.t_rcd as f64,
            "gap {}",
            close - open
        );
    }

    #[test]
    fn perfect_policy_matches_best_static_on_both_patterns() {
        let cf = cfg(1, 1);
        let stream = |i: u64| (i % 32) * 64;
        let alt = |i: u64| (i % 2) * (1 << 16) + (i / 2 % 8) * 64;
        for pattern in [stream as fn(u64) -> u64, alt as fn(u64) -> u64] {
            let open = mean_latency(&cf, PolicyKind::Open, pattern, 64, 300);
            let close = mean_latency(&cf, PolicyKind::Close, pattern, 64, 300);
            let perfect = mean_latency(
                &cf,
                PolicyKind::Predictive(PredictorKind::Perfect),
                pattern,
                64,
                300,
            );
            let best = open.min(close);
            assert!(
                perfect <= best + 2.0,
                "perfect {perfect} vs best static {best}"
            );
        }
    }

    #[test]
    fn queue_full_rejects() {
        let cf = cfg(1, 1).with_queue_size(2);
        let mut c = ctrl(&cf, PolicyKind::Open);
        assert!(c.enqueue(mkreq(&c, 1, 0, ReqKind::Read, 0), 0));
        assert!(c.enqueue(mkreq(&c, 2, 64, ReqKind::Read, 0), 0));
        assert!(!c.enqueue(mkreq(&c, 3, 128, ReqKind::Read, 0), 0));
        assert_eq!(c.stats.rejected, 1);
    }

    #[test]
    fn writes_complete_and_count() {
        let cf = cfg(2, 2);
        let mut c = ctrl(&cf, PolicyKind::Open);
        c.enqueue(mkreq(&c, 1, 0x1000, ReqKind::Write, 0), 0);
        let done = run_until(&mut c, 1, 10_000);
        assert!(done[0].is_write);
        assert_eq!(c.stats.served_writes, 1);
        assert_eq!(c.channel.stats.writes, 1);
    }

    #[test]
    fn refresh_eventually_issues_and_service_resumes() {
        let cf = MemConfig::lpddr_tsi().with_ubanks(1, 1).with_channels(1);
        let mut c = ctrl(&cf, PolicyKind::Open);
        let t = cf.timings();
        // Keep a row open so the drain path is exercised.
        c.enqueue(mkreq(&c, 1, 0, ReqKind::Read, 0), 0);
        let mut done = Vec::new();
        for now in 0..(t.t_refi + t.t_rfc + 2000) {
            c.tick(now);
            c.take_completions(&mut done);
        }
        assert_eq!(c.channel.stats.refreshes, 1);
        // Post-refresh request still completes.
        let at = t.t_refi + t.t_rfc + 2000;
        c.enqueue(mkreq(&c, 2, 1 << 22, ReqKind::Read, 0), at);
        for now in at..(at + 10_000) {
            c.tick(now);
            c.take_completions(&mut done);
        }
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn microbanks_overlap_conflicting_requests() {
        use microbank_core::address::{AddressMap, Location};
        // Baseline (1,1): two rows of bank 0 conflict and serialize over
        // tRC. (4,4): the "second row" lives in a different μbank of the
        // same bank (b = 1), so the two requests overlap.
        let mut finish = Vec::new();
        for (nw, nb) in [(1usize, 1usize), (4, 4)] {
            let cf = cfg(nw, nb);
            let map = AddressMap::new(&cf);
            let mk = |b: u8, row: u32| Location {
                channel: 0,
                rank: 0,
                bank: 0,
                w: 0,
                b,
                row,
                col: 0,
            };
            let (l1, l2) = if nb == 1 {
                (mk(0, 0), mk(0, 1))
            } else {
                (mk(0, 0), mk(1, 0))
            };
            let mut c = ctrl(&cf, PolicyKind::Open);
            c.enqueue(mkreq(&c, 1, map.encode(&l1), ReqKind::Read, 0), 0);
            c.enqueue(mkreq(&c, 2, map.encode(&l2), ReqKind::Read, 0), 0);
            let done = run_until(&mut c, 2, 100_000);
            finish.push(done.iter().map(|d| d.at).max().unwrap());
        }
        assert!(
            finish[1] + 20 < finish[0],
            "ubank {} not faster than baseline {}",
            finish[1],
            finish[0]
        );
    }

    #[test]
    fn local_predictor_policy_learns_open_friendly_stream() {
        let cf = cfg(1, 1);
        let mut c = ctrl(&cf, PolicyKind::Predictive(PredictorKind::Local));
        let mut now = 0;
        let mut done: Vec<Completion> = Vec::new();
        let mut next = 0u64;
        // Same row repeatedly, serialized so every access is speculative.
        while done.len() < 60 && now < 1_000_000 {
            if next < 60 && next <= done.len() as u64 {
                c.enqueue(mkreq(&c, next, (next % 32) * 64, ReqKind::Read, 0), now);
                next += 1;
            }
            c.tick(now);
            c.take_completions(&mut done);
            now += 1;
        }
        assert_eq!(done.len(), 60);
        assert!(
            c.policy_hit_rate() > 0.8,
            "hit rate {}",
            c.policy_hit_rate()
        );
        // After warmup the predictor keeps the row open: ~1 activate total.
        assert!(
            c.channel.stats.activates <= 3,
            "{} ACTs",
            c.channel.stats.activates
        );
    }

    #[test]
    fn write_drain_batches_writes() {
        // Interleaved reads and writes to different banks: with watermarks
        // the controller services writes in bursts, reducing read/write
        // alternation on the data bus.
        let count_alternations = |use_drain: bool| -> (usize, Cycle) {
            let cf = cfg(2, 2).with_queue_size(16);
            let mut c = ctrl(&cf, PolicyKind::Open);
            if use_drain {
                c = c.with_write_drain(WriteDrain { hi: 8, lo: 2 });
            }
            let mut done: Vec<Completion> = Vec::new();
            let mut order: Vec<bool> = Vec::new();
            let mut next = 0u64;
            let mut now = 0;
            while done.len() < 64 && now < 200_000 {
                while next < 64 && c.free_slots() > 0 {
                    let kind = if next.is_multiple_of(2) {
                        ReqKind::Read
                    } else {
                        ReqKind::Write
                    };
                    // One open row: every request is a column candidate, so
                    // ordering is purely the scheduler/drain's choice.
                    c.enqueue(mkreq(&c, next, (next % 32) * 64, kind, 0), now);
                    next += 1;
                }
                c.tick(now);
                let before = done.len();
                c.take_completions(&mut done);
                for d in &done[before..] {
                    order.push(d.is_write);
                }
                now += 1;
            }
            assert_eq!(done.len(), 64);
            let alternations = order.windows(2).filter(|w| w[0] != w[1]).count();
            (alternations, now)
        };
        let (alt_plain, _) = count_alternations(false);
        let (alt_drain, _) = count_alternations(true);
        // tWTR already induces natural batching; drain mode must never be
        // worse, and must actually engage (checked below via stats).
        assert!(
            alt_drain <= alt_plain,
            "draining made alternation worse: {alt_drain} vs {alt_plain}"
        );
        // Engagement check on a fresh controller with a deep write burst.
        let cf = cfg(1, 1).with_queue_size(16);
        let mut c = ctrl(&cf, PolicyKind::Open).with_write_drain(WriteDrain { hi: 8, lo: 2 });
        for i in 0..12u64 {
            c.enqueue(mkreq(&c, i, (i % 32) * 64, ReqKind::Write, 0), 0);
        }
        for now in 0..20_000 {
            c.tick(now);
        }
        assert!(c.stats.drain_selections > 0, "drain mode never engaged");
    }

    #[test]
    fn write_drain_preserves_completion_set() {
        let cf = cfg(1, 1).with_queue_size(8);
        let mut c = ctrl(&cf, PolicyKind::Open).with_write_drain(WriteDrain { hi: 4, lo: 1 });
        let mut done = Vec::new();
        for i in 0..8u64 {
            let kind = if i < 4 { ReqKind::Write } else { ReqKind::Read };
            c.enqueue(mkreq(&c, i, i << 16, kind, 0), 0);
        }
        for now in 0..100_000 {
            c.tick(now);
            c.take_completions(&mut done);
            if done.len() == 8 {
                break;
            }
        }
        assert_eq!(done.len(), 8, "all requests complete under drain mode");
        let ids: std::collections::HashSet<u64> = done.iter().map(|d| d.id).collect();
        assert_eq!(ids.len(), 8);
    }

    #[test]
    fn mean_queue_occupancy_reported() {
        let cf = cfg(1, 1);
        let mut c = ctrl(&cf, PolicyKind::Open);
        c.enqueue(mkreq(&c, 1, 0, ReqKind::Read, 0), 0);
        for now in 0..100 {
            c.tick(now);
        }
        assert!(c.stats.mean_queue_occupancy() > 0.0);
        assert_eq!(c.stats.tick_calls, 100);
    }

    /// Regression: retiring a μbank while its close deadline is armed must
    /// drop that deadline (and any auto-precharge) with it. The failure
    /// mode was a stale `deadline_heap` entry promoting the dead μbank back
    /// into `pre_due`, issuing a policy PRE against a μbank the degradation
    /// ladder had already removed.
    #[test]
    fn retiring_a_ubank_drops_its_pending_close_deadline() {
        let cf = cfg(4, 4);
        let mut fc = FaultConfig::new(3);
        fc.subarray_faults = 1;
        // Locate the bad μbank with a probe engine: `FaultEngine::new` is
        // deterministic per (seed, channel), so the controller's own engine
        // carries the same fault map.
        let mut probe = FaultEngine::new(&cf, &fc, 0);
        let bad = (0..cf.ubanks_per_channel() as u32)
            .find(|&f| probe.assess_demand_read(f, 0, 0.0, false) == AccessVerdict::Uncorrectable)
            .expect("subarray fault marks one μbank bad");
        let window = 200;
        let mut c = ctrl(
            &cf,
            PolicyKind::MinimalistOpen {
                window_cycles: window,
            },
        );
        c.enable_faults(&fc, 0);
        // A read addressed at the bad μbank, row 0 (low addresses decode to
        // row 0; scan for the address that lands on the target flat).
        let addr = (0..1 << 20)
            .step_by(64)
            .find(|&a| {
                let loc = c.map().decode(a);
                loc.ubank_flat(&cf) as u32 == bad && loc.row == 0
            })
            .expect("some cache line maps to the bad μbank");
        assert!(c.enqueue(mkreq(&c, 1, addr, ReqKind::Read, 0), 0));
        let done = run_until(&mut c, 1, 10_000);
        assert_eq!(done.len(), 1, "uncorrectable reads still complete");
        let flat = bad as usize;
        assert!(
            c.faults.as_ref().unwrap().degrade.is_ubank_retired(bad),
            "the uncorrectable read retires the μbank"
        );
        // The deadline `speculate` armed on service must be gone, along
        // with every other piece of policy state for the flat.
        assert_eq!(c.close_deadline[flat], Cycle::MAX);
        assert!(c.pending[flat].is_none());
        assert!(!c.pre_due.contains(&flat));
        // And no policy PRE may fire once the window elapses: the heap's
        // stale entry is discarded, not promoted.
        let pres = c.channel.stats.precharges;
        let start = done[0].at;
        for now in start..start + 4 * window {
            c.tick(now);
        }
        assert_eq!(
            c.channel.stats.precharges, pres,
            "policy precharge issued against a retired μbank"
        );
        assert!(c.pre_due.is_empty());
    }

    // ---- multi-tenant QoS (DESIGN §5g) ----

    fn mkreq_t(
        c: &MemoryController,
        id: u64,
        addr: u64,
        kind: ReqKind,
        tenant: TenantId,
    ) -> MemRequest {
        let mut r = mkreq(c, id, addr, kind, tenant.0 as u16);
        r.tenant = tenant;
        r
    }

    /// Tick `c` through `[0, end)` and bucket completion times.
    fn drain_until(c: &mut MemoryController, end: Cycle) -> Vec<Completion> {
        let mut done = Vec::new();
        for now in 0..end {
            c.tick(now);
            c.take_completions(&mut done);
        }
        done
    }

    #[test]
    fn strict_throttling_bounds_completions_per_window() {
        let cf = cfg(1, 1);
        let period = 10_000;
        let qc = QosConfig::tracking()
            .with_replenish_period(period)
            .with_work_conserving(false)
            .with_tenant(Some(2), 0);
        let mut c = ctrl(&cf, PolicyKind::Open);
        c.enable_qos(&qc);
        for i in 0..6u64 {
            // Same row: row hits, so only the token bucket paces issue.
            assert!(c.enqueue(mkreq_t(&c, i, i * 64, ReqKind::Read, TenantId(0)), 0));
        }
        let done = drain_until(&mut c, 3 * period);
        assert_eq!(done.len(), 6, "all requests eventually complete");
        for w in 0..3u64 {
            let in_window = done
                .iter()
                .filter(|d| d.at >= w * period && d.at < (w + 1) * period)
                .count();
            assert!(
                in_window <= 2,
                "window {w} served {in_window} > budget 2 without reclaim"
            );
        }
        let q = c.qos.as_ref().unwrap();
        assert!(q.stats.throttled[0] > 0, "empty-bucket rounds must count");
        assert_eq!(q.stats.reclaimed[0], 0, "strict mode never reclaims");
    }

    #[test]
    fn work_conserving_reclaim_never_idles_the_channel() {
        let cf = cfg(1, 1);
        let period = 10_000;
        let qc = QosConfig::tracking()
            .with_replenish_period(period)
            .with_work_conserving(true)
            .with_tenant(Some(2), 0);
        let mut c = ctrl(&cf, PolicyKind::Open);
        c.enable_qos(&qc);
        for i in 0..6u64 {
            assert!(c.enqueue(mkreq_t(&c, i, i * 64, ReqKind::Read, TenantId(0)), 0));
        }
        // No competing token-holder exists, so reclaim back-fills the
        // budget gap: everything finishes well inside the first window.
        let done = drain_until(&mut c, period);
        assert_eq!(done.len(), 6, "reclaim must not idle eligible demand");
        let q = c.qos.as_ref().unwrap();
        assert_eq!(q.stats.reclaimed[0], 4, "issues beyond budget 2 reclaim");
        assert_eq!(q.stats.served_cols[0], 6);
    }

    #[test]
    fn priority_tenant_is_served_before_earlier_batch_arrivals() {
        let cf = cfg(1, 1);
        // Tenant 0 (batch): priority 1; tenant 1 (latency-critical): 0.
        let qc = QosConfig::tracking()
            .with_tenant(None, 1)
            .with_tenant(None, 0);
        let mut c = MemoryController::new(&cf, SchedulerKind::FrFcfs, PolicyKind::Open, 4);
        c.enable_qos(&qc);
        for i in 0..4u64 {
            assert!(c.enqueue(mkreq_t(&c, i, i * 64, ReqKind::Read, TenantId(0)), 0));
        }
        // Arrives last (highest id, same cycle): must still win the first
        // service round — tenant priority ranks above row-hit order.
        assert!(c.enqueue(mkreq_t(&c, 9, 0x100, ReqKind::Read, TenantId(1)), 0));
        let done = run_until(&mut c, 5, 100_000);
        assert_eq!(done[0].tenant, TenantId(1), "priority tenant first");
        assert_eq!(done[0].id, 9);
    }

    #[test]
    fn idle_until_declines_while_a_throttled_request_waits() {
        let cf = cfg(1, 1);
        let mut c = MemoryController::new(&cf, SchedulerKind::FrFcfs, PolicyKind::Open, 4);
        c.enable_qos(
            &QosConfig::tracking()
                .with_work_conserving(false)
                .with_tenant(Some(0), 0),
        );
        assert_eq!(c.idle_until(), Some(Cycle::MAX), "empty queue, refresh off");
        assert!(c.enqueue(mkreq_t(&c, 1, 0x40, ReqKind::Read, TenantId(0)), 0));
        for now in 0..1_000 {
            c.tick(now);
            assert_eq!(
                c.idle_until(),
                None,
                "a queued request keeps the controller awake, even one its \
                 empty bucket withholds"
            );
        }
        assert_eq!(c.stats.served_reads, 0, "zero budget never serves");
    }
}
