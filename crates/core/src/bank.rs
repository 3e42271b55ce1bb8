//! Per-μbank timing state machine.
//!
//! Each μbank behaves like a conventional bank (§IV-A): it owns one row
//! buffer (the bitline sense amplifiers of its mat rows, selected by the
//! added latches) and enforces the intra-bank timing constraints —
//! tRCD (ACT→column), tRAS (ACT→PRE), tRP (PRE→ACT), tRTP (RD→PRE), and
//! tWR (write recovery→PRE). Inter-bank constraints (tRRD, tFAW, bus
//! occupancy, tCCD, turnarounds) live in [`crate::channel`].

use crate::timing::Timings;
use crate::Cycle;

/// Timing state of one μbank. All `next_*` fields are earliest-legal issue
/// times in CPU cycles; `0` means "immediately".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MicrobankState {
    /// Currently open row, if any (the row buffer contents).
    pub open_row: Option<u32>,
    /// Earliest cycle an ACT may issue (tRP after the last PRE, tRFC after
    /// a refresh).
    pub next_act: Cycle,
    /// Earliest cycle a column command may issue (tRCD after the ACT).
    pub next_col: Cycle,
    /// Earliest cycle a PRE may issue (max of tRAS, read-to-precharge, and
    /// write recovery).
    pub next_pre: Cycle,
    /// Cycle of the most recent ACT (used by policy code to measure row
    /// open time).
    pub last_act: Cycle,
    /// Number of column accesses served by the currently open row.
    pub row_hits_open: u32,
}

impl MicrobankState {
    pub fn new() -> Self {
        Self::default()
    }

    /// True if the bank is precharged (no open row).
    pub fn is_idle(&self) -> bool {
        self.open_row.is_none()
    }

    /// Can an ACT legally issue at `now`?
    pub fn can_activate(&self, now: Cycle) -> bool {
        self.open_row.is_none() && now >= self.next_act
    }

    /// Can a column command to `row` legally issue at `now`?
    pub fn can_column(&self, row: u32, now: Cycle) -> bool {
        self.open_row == Some(row) && now >= self.next_col
    }

    /// Can a PRE legally issue at `now`? (Precharging an idle bank is a
    /// no-op the controller never emits; we forbid it here to catch bugs.)
    pub fn can_precharge(&self, now: Cycle) -> bool {
        self.open_row.is_some() && now >= self.next_pre
    }

    /// Issue an ACT at `now`. Caller must have checked [`Self::can_activate`].
    pub fn activate(&mut self, row: u32, now: Cycle, t: &Timings) {
        debug_assert!(self.can_activate(now), "illegal ACT at {now}");
        self.open_row = Some(row);
        self.last_act = now;
        self.row_hits_open = 0;
        self.next_col = now + t.t_rcd;
        self.next_pre = now + t.t_ras;
        // Guard against ACT while active: next_act only matters after PRE.
        self.next_act = Cycle::MAX;
    }

    /// Issue a RD at `now`; returns the cycle the last data beat arrives.
    pub fn read(&mut self, now: Cycle, t: &Timings) -> Cycle {
        debug_assert!(
            self.open_row.is_some() && now >= self.next_col,
            "illegal RD at {now}"
        );
        self.row_hits_open += 1;
        self.next_pre = self.next_pre.max(now + t.t_rtp);
        now + t.t_aa + t.t_burst
    }

    /// Issue a WR at `now`; returns the cycle write data is fully latched.
    pub fn write(&mut self, now: Cycle, t: &Timings) -> Cycle {
        debug_assert!(
            self.open_row.is_some() && now >= self.next_col,
            "illegal WR at {now}"
        );
        self.row_hits_open += 1;
        let data_end = now + t.t_cwl + t.t_burst;
        self.next_pre = self.next_pre.max(data_end + t.t_wr);
        data_end
    }

    /// Issue a PRE at `now`. Caller must have checked [`Self::can_precharge`].
    pub fn precharge(&mut self, now: Cycle, t: &Timings) {
        debug_assert!(self.can_precharge(now), "illegal PRE at {now}");
        self.open_row = None;
        self.next_act = now + t.t_rp;
        self.next_col = Cycle::MAX;
    }

    /// Refresh completed at `done`: bank is idle and may activate then.
    /// (`next_act` is always finite while the bank is precharged.)
    pub fn refresh_until(&mut self, done: Cycle) {
        debug_assert!(self.open_row.is_none(), "refresh with open row");
        self.next_act = self.next_act.max(done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::TimingParams;

    fn t() -> Timings {
        TimingParams::lpddr_tsi().to_cycles()
    }

    #[test]
    fn fresh_bank_accepts_act_only() {
        let b = MicrobankState::new();
        assert!(b.can_activate(0));
        assert!(!b.can_column(0, 1000));
        assert!(!b.can_precharge(1000));
    }

    #[test]
    fn act_to_column_respects_trcd() {
        let t = t();
        let mut b = MicrobankState::new();
        b.activate(5, 100, &t);
        assert!(!b.can_column(5, 100 + t.t_rcd - 1));
        assert!(b.can_column(5, 100 + t.t_rcd));
        assert!(!b.can_column(6, 100 + t.t_rcd), "wrong row must miss");
    }

    #[test]
    fn act_to_pre_respects_tras() {
        let t = t();
        let mut b = MicrobankState::new();
        b.activate(1, 0, &t);
        assert!(!b.can_precharge(t.t_ras - 1));
        assert!(b.can_precharge(t.t_ras));
    }

    #[test]
    fn pre_to_act_respects_trp() {
        let t = t();
        let mut b = MicrobankState::new();
        b.activate(1, 0, &t);
        b.precharge(t.t_ras, &t);
        assert!(!b.can_activate(t.t_ras + t.t_rp - 1));
        assert!(b.can_activate(t.t_ras + t.t_rp));
    }

    #[test]
    fn read_pushes_out_precharge() {
        let t = t();
        let mut b = MicrobankState::new();
        b.activate(1, 0, &t);
        let rd_at = t.t_ras - 2; // read just before tRAS expires
        let _ = b.read(rd_at, &t);
        assert!(!b.can_precharge(t.t_ras), "tRTP extends beyond tRAS here");
        assert!(b.can_precharge(rd_at + t.t_rtp));
    }

    #[test]
    fn write_recovery_blocks_precharge() {
        let t = t();
        let mut b = MicrobankState::new();
        b.activate(1, 0, &t);
        let wr_at = t.t_rcd;
        let data_end = b.write(wr_at, &t);
        assert_eq!(data_end, wr_at + t.t_cwl + t.t_burst);
        assert!(!b.can_precharge(data_end + t.t_wr - 1));
        assert!(b.can_precharge(data_end + t.t_wr));
    }

    #[test]
    fn row_hit_counter_tracks_open_row() {
        let t = t();
        let mut b = MicrobankState::new();
        b.activate(1, 0, &t);
        let _ = b.read(t.t_rcd, &t);
        let _ = b.read(t.t_rcd + t.t_ccd, &t);
        assert_eq!(b.row_hits_open, 2);
        b.precharge(b.next_pre, &t);
        assert!(b.is_idle());
    }

    #[test]
    fn full_cycle_takes_at_least_trc() {
        // ACT@0 → earliest PRE @tRAS → earliest next ACT @tRAS+tRP = tRC.
        let t = t();
        let mut b = MicrobankState::new();
        b.activate(1, 0, &t);
        let pre_at = (0..).find(|&c| b.can_precharge(c)).unwrap();
        b.precharge(pre_at, &t);
        let act_at = (pre_at..).find(|&c| b.can_activate(c)).unwrap();
        assert_eq!(act_at, t.t_rc());
    }
}
