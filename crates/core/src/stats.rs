//! DRAM event counters. The energy model (crate `microbank-energy`)
//! converts these into pJ using the paper's Table I parameters, so every
//! counter here corresponds to one energy term in the paper's breakdowns
//! (Fig. 1, Fig. 10, Fig. 14).

/// Event counters for one channel (or, after [`DramStats::merge`], a whole
/// memory system).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// ACT commands issued. Each carries the row-activation energy
    /// (30 nJ / nW for a full 8 KB page, Table I).
    pub activates: u64,
    /// PRE commands issued (the paper folds PRE energy into the combined
    /// ACT+PRE figure; we count both for sanity checks).
    pub precharges: u64,
    pub reads: u64,
    pub writes: u64,
    /// All-bank refreshes issued.
    pub refreshes: u64,
    /// Patrol-scrub commands issued (reliability subsystem; always 0 when
    /// fault injection is disabled).
    pub scrubs: u64,
    /// Cycles the data bus spent transferring bursts.
    pub data_bus_busy: u64,
    /// Column accesses that hit an already-open row.
    pub row_hits: u64,
    /// Column accesses that required opening a closed (idle) bank.
    pub row_closed: u64,
    /// Column accesses that conflicted with a different open row.
    pub row_conflicts: u64,
    /// Rank-cycles spent in precharge power-down (CKE low).
    pub powerdown_rank_cycles: u64,
    /// Power-down entries (each exit pays tXP).
    pub powerdown_entries: u64,
}

impl DramStats {
    /// Accumulate another stats block (e.g. per-channel → system, the
    /// cross-channel merge). Saturating, matching the per-channel
    /// accumulation contract: a counter pinned near `u64::MAX` must
    /// degrade to the ceiling, never wrap to a tiny value.
    pub fn merge(&mut self, other: &DramStats) {
        self.activates = self.activates.saturating_add(other.activates);
        self.precharges = self.precharges.saturating_add(other.precharges);
        self.reads = self.reads.saturating_add(other.reads);
        self.writes = self.writes.saturating_add(other.writes);
        self.refreshes = self.refreshes.saturating_add(other.refreshes);
        self.scrubs = self.scrubs.saturating_add(other.scrubs);
        self.data_bus_busy = self.data_bus_busy.saturating_add(other.data_bus_busy);
        self.row_hits = self.row_hits.saturating_add(other.row_hits);
        self.row_closed = self.row_closed.saturating_add(other.row_closed);
        self.row_conflicts = self.row_conflicts.saturating_add(other.row_conflicts);
        self.powerdown_rank_cycles = self
            .powerdown_rank_cycles
            .saturating_add(other.powerdown_rank_cycles);
        self.powerdown_entries = self
            .powerdown_entries
            .saturating_add(other.powerdown_entries);
    }

    /// Total column accesses.
    pub fn columns(&self) -> u64 {
        self.reads + self.writes
    }

    /// Row-buffer hit rate over classified accesses.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_closed + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Ratio of ACT commands to column commands — the paper's β (§IV-B):
    /// β = 1 means every access opens a row; small β means high locality.
    pub fn beta(&self) -> f64 {
        if self.columns() == 0 {
            0.0
        } else {
            self.activates as f64 / self.columns() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = DramStats {
            activates: 1,
            reads: 2,
            ..Default::default()
        };
        let b = DramStats {
            activates: 3,
            writes: 5,
            row_hits: 7,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.activates, 4);
        assert_eq!(a.reads, 2);
        assert_eq!(a.writes, 5);
        assert_eq!(a.columns(), 7);
        assert_eq!(a.row_hits, 7);
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        let mut a = DramStats {
            activates: u64::MAX - 1,
            ..Default::default()
        };
        let b = DramStats {
            activates: 16,
            reads: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.activates, u64::MAX);
        assert_eq!(a.reads, 2);
    }

    #[test]
    fn beta_definition() {
        let s = DramStats {
            activates: 10,
            reads: 80,
            writes: 20,
            ..Default::default()
        };
        assert!((s.beta() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn hit_rate_handles_empty() {
        assert_eq!(DramStats::default().row_hit_rate(), 0.0);
        let s = DramStats {
            row_hits: 3,
            row_closed: 1,
            ..Default::default()
        };
        assert!((s.row_hit_rate() - 0.75).abs() < 1e-12);
    }
}
