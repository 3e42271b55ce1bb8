//! Multi-tenant QoS: per-tenant token-bucket bandwidth regulation at
//! channel or μbank granularity (MemGuard-style per-bank regulation,
//! PAPERS.md "Per-Bank Memory Bandwidth Regulation", projected onto the
//! paper's μbank partitions), plus a tenant-priority axis consumed by the
//! scheduler.
//!
//! The paper's massive-μbank regime is what makes this interesting: a
//! (16,16) partition turns each conventional bank into 256 independently
//! schedulable μbanks, so a "per-bank" regulator becomes a *per-μbank*
//! regulator — fine enough to fence a batch tenant's streaming traffic
//! away from a latency-critical tenant's row buffers instead of merely
//! capping its aggregate channel share.
//!
//! ## Bucket semantics
//!
//! Each regulated tenant owns one token bucket per budget domain (the
//! whole channel, or each flat μbank). A bucket holds `budget` tokens per
//! replenishment window of `replenish_period` cycles; a token pays for one
//! column burst (RD or WR, 64 B). Buckets are *lazy*: instead of a
//! scheduled refill event, the window index `now / replenish_period` is
//! compared on every access and the spent counter resets when it moves.
//! Replenishment therefore never wakes an idle controller, which is what
//! lets regulation coexist with the event-driven time-skip core (DESIGN
//! §5f/§5g): a refill is a monotone *relaxation* (tokens only appear), so
//! skipping across a window boundary can never suppress an action — and
//! the controller's `next_event` falls back to per-cycle ticking whenever
//! any queued request's bucket is empty, the only state in which a refill
//! could *enable* one.
//!
//! ## Throttle and reclaim
//!
//! A tenant whose bucket is empty has its candidates removed from demand
//! scheduling (counted per drop in [`QosStats::throttled`]). If that
//! leaves no eligible candidate and `work_conserving` is set, the
//! controller re-admits the throttled candidates rather than idle the
//! channel — the issue is charged to [`QosStats::reclaimed`] instead of
//! the bucket, so regulated spends never exceed the budget and unused
//! bandwidth is still reclaimed by whoever has demand.

use microbank_core::request::TenantId;
use microbank_core::validate::{Checker, ConfigError};
use microbank_core::Cycle;

/// Hard cap on distinguishable tenants: accounting arrays are fixed-size
/// so per-issue bookkeeping never allocates. Tenants tagged beyond the
/// cap fold into the last slot.
pub const MAX_TENANTS: usize = 4;

/// Accounting slot for a tenant id (ids beyond the cap share the last).
#[inline]
pub fn tenant_slot(t: TenantId) -> usize {
    t.index().min(MAX_TENANTS - 1)
}

/// Budget-domain granularity of the token buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QosGranularity {
    /// One bucket per tenant for the whole channel (conventional
    /// per-channel bandwidth regulation).
    Channel,
    /// One bucket per tenant per flat μbank: the paper-specific regime
    /// where a (16,16) partition yields 256 independent budget domains
    /// per bank's worth of capacity.
    Ubank,
}

/// Per-tenant regulation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantPolicy {
    /// Column bursts allowed per bucket per replenishment window;
    /// `None` leaves the tenant unregulated (accounted but never
    /// throttled).
    pub budget: Option<u32>,
    /// Scheduler priority, lower is served first; all-equal priorities
    /// leave the scheduler's ranking untouched.
    pub priority: u8,
}

/// Validated QoS configuration (rides on `SimConfig` as `Option<QosConfig>`
/// — `None` keeps the whole subsystem out of the hot path, same pattern as
/// `FaultConfig`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QosConfig {
    pub granularity: QosGranularity,
    /// Replenishment window length in memory-controller cycles.
    pub replenish_period: u64,
    /// Re-admit throttled candidates when no token-holding candidate
    /// exists, so regulation never idles a channel with eligible demand.
    pub work_conserving: bool,
    /// Indexed by `TenantId`; tenants at or beyond this length are
    /// unregulated with priority 0.
    pub tenants: Vec<TenantPolicy>,
}

impl QosConfig {
    /// Accounting-only configuration: no budgets, no priorities. Arms the
    /// per-tenant counters and histograms without perturbing scheduling —
    /// the golden-identity suite pins that this is behavior-neutral.
    pub fn tracking() -> Self {
        QosConfig {
            granularity: QosGranularity::Ubank,
            replenish_period: 1_000,
            work_conserving: true,
            tenants: Vec::new(),
        }
    }

    pub fn with_granularity(mut self, g: QosGranularity) -> Self {
        self.granularity = g;
        self
    }

    pub fn with_replenish_period(mut self, period: u64) -> Self {
        self.replenish_period = period;
        self
    }

    pub fn with_work_conserving(mut self, on: bool) -> Self {
        self.work_conserving = on;
        self
    }

    /// Append the next tenant's policy (tenant ids are assigned in call
    /// order: the first call configures `TenantId(0)`).
    pub fn with_tenant(mut self, budget: Option<u32>, priority: u8) -> Self {
        self.tenants.push(TenantPolicy { budget, priority });
        self
    }

    /// Any tenant carries a bandwidth budget.
    pub fn regulating(&self) -> bool {
        self.tenants.iter().any(|t| t.budget.is_some())
    }

    /// Any tenant pair differs in priority.
    pub fn prioritizing(&self) -> bool {
        self.tenants
            .first()
            .is_some_and(|f| self.tenants.iter().any(|t| t.priority != f.priority))
    }

    /// Scheduler priority table (slots beyond the configured tenants get
    /// priority 0, matching unconfigured tenants' behavior).
    pub fn priorities(&self) -> [u8; MAX_TENANTS] {
        let mut p = [0u8; MAX_TENANTS];
        for (i, t) in self.tenants.iter().take(MAX_TENANTS).enumerate() {
            p[i] = t.priority;
        }
        p
    }

    /// Structured validation (see `microbank_core::validate`): every
    /// problem reported at once, aggregated by `SimConfig::validate`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let mut ck = Checker::new();
        ck.check(self.replenish_period >= 1, || {
            "qos.replenish_period must be >= 1 cycle".to_string()
        });
        ck.check(self.tenants.len() <= MAX_TENANTS, || {
            format!(
                "qos.tenants has {} entries, max {MAX_TENANTS}",
                self.tenants.len()
            )
        });
        if self.regulating() {
            ck.check(self.replenish_period >= 8, || {
                format!(
                    "qos.replenish_period {} too short for regulation (min 8 \
                     cycles, a column burst cannot complete faster)",
                    self.replenish_period
                )
            });
        }
        ck.finish("QosConfig")
    }
}

/// Regulator counters, reported per controller and merged per run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QosStats {
    /// Column bursts issued, per tenant slot (reads + writes): the
    /// bandwidth-share numerator.
    pub served_cols: [u64; MAX_TENANTS],
    /// Read bursts issued, per tenant slot.
    pub served_reads: [u64; MAX_TENANTS],
    /// Candidates dropped from a scheduling round because the tenant's
    /// bucket was empty (one count per candidate per round).
    pub throttled: [u64; MAX_TENANTS],
    /// Column bursts issued through work-conserving reclaim (bucket empty,
    /// no token-holding competitor): not charged against any budget.
    pub reclaimed: [u64; MAX_TENANTS],
}

impl QosStats {
    pub fn merge(&mut self, other: &QosStats) {
        for i in 0..MAX_TENANTS {
            self.served_cols[i] += other.served_cols[i];
            self.served_reads[i] += other.served_reads[i];
            self.throttled[i] += other.throttled[i];
            self.reclaimed[i] += other.reclaimed[i];
        }
    }

    pub fn total_throttled(&self) -> u64 {
        self.throttled.iter().sum()
    }

    pub fn total_reclaimed(&self) -> u64 {
        self.reclaimed.iter().sum()
    }
}

/// Per-controller regulator runtime: lazy token buckets plus accounting.
#[derive(Debug, Clone)]
pub struct QosRegulator {
    cfg: QosConfig,
    /// Budget domains per tenant: 1 (channel) or the flat μbank count.
    domains: usize,
    /// Window index of each bucket's last reset, `[tenant][domain]`
    /// flattened; `u64::MAX` = untouched (spent is 0 anyway).
    window: Vec<u64>,
    /// Tokens spent in the current window, same layout.
    spent: Vec<u32>,
    pub stats: QosStats,
}

impl QosRegulator {
    /// `flat_ubanks` is the owning channel's flat μbank count (the budget
    /// domain count under [`QosGranularity::Ubank`]).
    pub fn new(cfg: QosConfig, flat_ubanks: usize) -> Self {
        let domains = match cfg.granularity {
            QosGranularity::Channel => 1,
            QosGranularity::Ubank => flat_ubanks.max(1),
        };
        let slots = cfg.tenants.len() * domains;
        QosRegulator {
            cfg,
            domains,
            window: vec![u64::MAX; slots],
            spent: vec![0; slots],
            stats: QosStats::default(),
        }
    }

    pub fn config(&self) -> &QosConfig {
        &self.cfg
    }

    /// Any budget is configured (the controller's filter / horizon gating
    /// only engage when this holds).
    pub fn regulating(&self) -> bool {
        self.cfg.regulating()
    }

    #[inline]
    fn slot(&self, tenant: usize, flat: u32) -> usize {
        let d = match self.cfg.granularity {
            QosGranularity::Channel => 0,
            QosGranularity::Ubank => flat as usize,
        };
        tenant * self.domains + d
    }

    /// Non-mutating token peek: true unless the tenant is regulated and
    /// its bucket for `flat` is exhausted in the window containing `now`.
    /// Pure in `(state, now)`, so the controller's `next_event` may call
    /// it without perturbing replayability.
    #[inline]
    pub fn has_token(&self, tenant: TenantId, flat: u32, now: Cycle) -> bool {
        let t = tenant.index();
        let Some(budget) = self.cfg.tenants.get(t).and_then(|p| p.budget) else {
            return true;
        };
        let s = self.slot(t, flat);
        if self.window[s] != now / self.cfg.replenish_period {
            // A fresh window: the lazy reset would grant the full budget.
            budget > 0
        } else {
            self.spent[s] < budget
        }
    }

    /// Charge one column burst issued for `tenant` at `flat`. Tokens are
    /// consumed while the bucket holds any; an over-budget issue (only
    /// reachable through work-conserving reclaim) is recorded in
    /// [`QosStats::reclaimed`] and never pushes `spent` past the budget.
    pub fn spend(&mut self, tenant: TenantId, flat: u32, now: Cycle, is_read: bool) {
        let slot = tenant_slot(tenant);
        self.stats.served_cols[slot] += 1;
        if is_read {
            self.stats.served_reads[slot] += 1;
        }
        let t = tenant.index();
        let Some(budget) = self.cfg.tenants.get(t).and_then(|p| p.budget) else {
            return;
        };
        let s = self.slot(t, flat);
        let w = now / self.cfg.replenish_period;
        if self.window[s] != w {
            self.window[s] = w;
            self.spent[s] = 0;
        }
        if self.spent[s] < budget {
            self.spent[s] += 1;
        } else {
            self.stats.reclaimed[slot] += 1;
        }
    }

    /// Record a candidate dropped from a scheduling round for want of a
    /// token.
    #[inline]
    pub fn note_throttled(&mut self, tenant: TenantId) {
        self.stats.throttled[tenant_slot(tenant)] += 1;
    }

    /// Tokens spent from the bucket (excluding reclaims) in the window
    /// containing `now` — test/diagnostic surface for the budget-cap
    /// property.
    pub fn spent_in_window(&self, tenant: TenantId, flat: u32, now: Cycle) -> u32 {
        let t = tenant.index();
        if t >= self.cfg.tenants.len() {
            return 0;
        }
        let s = self.slot(t, flat);
        if self.window[s] == now / self.cfg.replenish_period {
            self.spent[s]
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn regulated(budget: u32, period: u64, gran: QosGranularity) -> QosRegulator {
        let cfg = QosConfig::tracking()
            .with_granularity(gran)
            .with_replenish_period(period)
            .with_tenant(Some(budget), 0)
            .with_tenant(None, 0);
        QosRegulator::new(cfg, 16)
    }

    #[test]
    fn tokens_deplete_and_windows_replenish() {
        let mut q = regulated(2, 100, QosGranularity::Channel);
        let t = TenantId(0);
        assert!(q.has_token(t, 0, 0));
        q.spend(t, 0, 0, true);
        assert!(q.has_token(t, 0, 10));
        q.spend(t, 0, 10, true);
        assert!(!q.has_token(t, 0, 20), "budget 2 exhausted");
        assert_eq!(q.spent_in_window(t, 0, 20), 2);
        // Next window: full budget again, via the lazy reset.
        assert!(q.has_token(t, 0, 100));
        q.spend(t, 0, 100, false);
        assert_eq!(q.spent_in_window(t, 0, 100), 1);
    }

    #[test]
    fn unregulated_tenants_always_hold_tokens() {
        let mut q = regulated(1, 100, QosGranularity::Channel);
        let batch = TenantId(1); // budget None
        let untagged = TenantId(3); // beyond the config
        for now in 0..50 {
            assert!(q.has_token(batch, 0, now));
            assert!(q.has_token(untagged, 0, now));
            q.spend(batch, 0, now, true);
        }
        assert_eq!(q.stats.served_cols[1], 50);
        assert_eq!(q.spent_in_window(batch, 0, 49), 0, "no bucket to charge");
    }

    #[test]
    fn ubank_granularity_isolates_buckets_per_flat() {
        let mut q = regulated(1, 1_000, QosGranularity::Ubank);
        let t = TenantId(0);
        q.spend(t, 3, 0, true);
        assert!(!q.has_token(t, 3, 1), "flat 3 exhausted");
        assert!(q.has_token(t, 4, 1), "flat 4 untouched");
        // Channel granularity would have shared the single bucket.
        let mut c = regulated(1, 1_000, QosGranularity::Channel);
        c.spend(t, 3, 0, true);
        assert!(!c.has_token(t, 4, 1));
    }

    #[test]
    fn reclaimed_spends_never_exceed_budget() {
        let mut q = regulated(2, 100, QosGranularity::Channel);
        let t = TenantId(0);
        for now in 0..10 {
            q.spend(t, 0, now, true);
        }
        assert_eq!(q.spent_in_window(t, 0, 9), 2, "bucket capped at budget");
        assert_eq!(q.stats.reclaimed[0], 8, "overflow charged to reclaim");
        assert_eq!(q.stats.served_cols[0], 10);
    }

    #[test]
    fn has_token_peek_is_pure() {
        let q = regulated(1, 100, QosGranularity::Channel);
        let t = TenantId(0);
        let before = (q.window.clone(), q.spent.clone());
        let _ = q.has_token(t, 0, 0);
        let _ = q.has_token(t, 0, 250);
        assert_eq!((q.window.clone(), q.spent.clone()), before);
    }

    #[test]
    fn zero_budget_tenant_never_holds_a_token() {
        let q = regulated(0, 100, QosGranularity::Channel);
        assert!(!q.has_token(TenantId(0), 0, 0));
        assert!(!q.has_token(TenantId(0), 0, 1_000_000));
    }

    #[test]
    fn tracking_config_neither_regulates_nor_prioritizes() {
        let cfg = QosConfig::tracking();
        assert!(!cfg.regulating());
        assert!(!cfg.prioritizing());
        assert!(cfg.validate().is_ok());
        let reg = QosRegulator::new(cfg, 64);
        assert!(!reg.regulating());
        assert!(reg.has_token(TenantId(0), 63, 123));
    }

    #[test]
    fn priorities_table_and_prioritizing() {
        let cfg = QosConfig::tracking()
            .with_tenant(None, 0)
            .with_tenant(None, 3);
        assert!(cfg.prioritizing());
        assert_eq!(cfg.priorities(), [0, 3, 0, 0]);
        let flat = QosConfig::tracking()
            .with_tenant(None, 2)
            .with_tenant(None, 2);
        assert!(!flat.prioritizing(), "equal priorities are neutral");
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let short = QosConfig::tracking()
            .with_replenish_period(2)
            .with_tenant(Some(4), 0);
        let err = short.validate().unwrap_err();
        assert!(err
            .diagnostics
            .iter()
            .any(|d| d.contains("replenish_period")));

        let mut crowd = QosConfig::tracking();
        for _ in 0..MAX_TENANTS + 1 {
            crowd = crowd.with_tenant(None, 0);
        }
        assert!(crowd.validate().is_err());

        let zero = QosConfig::tracking().with_replenish_period(0);
        assert!(zero.validate().is_err());
    }

    #[test]
    fn stats_merge_is_elementwise() {
        let mut a = QosStats::default();
        a.served_cols[0] = 5;
        a.throttled[1] = 2;
        let mut b = QosStats::default();
        b.served_cols[0] = 7;
        b.reclaimed[1] = 3;
        a.merge(&b);
        assert_eq!(a.served_cols[0], 12);
        assert_eq!(a.throttled[1], 2);
        assert_eq!(a.reclaimed[1], 3);
        assert_eq!(a.total_reclaimed(), 3);
        assert_eq!(a.total_throttled(), 2);
    }
}
