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

/// Timers of one μbank. All `next_*` fields are earliest-legal issue times
/// in CPU cycles; `0` means "immediately". The μbank's open row is not
/// here: the channel keeps every open row in one dense array, the only
/// copy, which the controller's per-slot scan reads
/// ([`crate::channel::Channel::open_rows`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct MicrobankState {
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

/// The μbank state machines of one channel, indexed by flat μbank (see
/// [`crate::address::Location::ubank_flat`]): each μbank's timers plus a
/// dense per-channel open-row array (the row buffer contents).
#[derive(Debug, Clone)]
pub(crate) struct Microbanks {
    open: Vec<Option<u32>>,
    state: Vec<MicrobankState>,
}

impl Microbanks {
    /// `n` precharged μbanks, each ready to activate at once.
    pub fn new(n: usize) -> Self {
        Microbanks {
            open: vec![None; n],
            state: vec![MicrobankState::default(); n],
        }
    }

    pub fn len(&self) -> usize {
        self.open.len()
    }

    /// Open row of every μbank, indexed by flat μbank.
    pub fn open_rows(&self) -> &[Option<u32>] {
        &self.open
    }

    /// Open row of μbank `flat`, if any.
    pub fn open_row(&self, flat: usize) -> Option<u32> {
        self.open[flat]
    }

    /// Timers of μbank `flat`.
    pub fn state(&self, flat: usize) -> &MicrobankState {
        &self.state[flat]
    }

    /// True if μbank `flat` is precharged (no open row).
    pub fn is_idle(&self, flat: usize) -> bool {
        self.open[flat].is_none()
    }

    /// Can an ACT legally issue to `flat` at `now`?
    pub fn can_activate(&self, flat: usize, now: Cycle) -> bool {
        self.open[flat].is_none() && now >= self.state[flat].next_act
    }

    /// Can a column command to `row` of `flat` legally issue at `now`?
    pub fn can_column(&self, flat: usize, row: u32, now: Cycle) -> bool {
        self.open[flat] == Some(row) && now >= self.state[flat].next_col
    }

    /// Can a PRE to `flat` legally issue at `now`? (Precharging an idle
    /// μbank is a no-op the controller never emits; we forbid it here to
    /// catch bugs.)
    pub fn can_precharge(&self, flat: usize, now: Cycle) -> bool {
        self.open[flat].is_some() && now >= self.state[flat].next_pre
    }

    /// Issue an ACT opening `row` at `now`. Caller must have checked
    /// [`Self::can_activate`].
    pub fn activate(&mut self, flat: usize, row: u32, now: Cycle, t: &Timings) {
        debug_assert!(self.can_activate(flat, now), "illegal ACT at {now}");
        self.open[flat] = Some(row);
        let b = &mut self.state[flat];
        b.last_act = now;
        b.row_hits_open = 0;
        b.next_col = now + t.t_rcd;
        b.next_pre = now + t.t_ras;
        // Guard against ACT while active: next_act only matters after PRE.
        b.next_act = Cycle::MAX;
    }

    /// Issue a RD at `now`; returns the cycle the last data beat arrives.
    pub fn read(&mut self, flat: usize, now: Cycle, t: &Timings) -> Cycle {
        debug_assert!(
            self.open[flat].is_some() && now >= self.state[flat].next_col,
            "illegal RD at {now}"
        );
        let b = &mut self.state[flat];
        b.row_hits_open += 1;
        b.next_pre = b.next_pre.max(now + t.t_rtp);
        now + t.t_aa + t.t_burst
    }

    /// Issue a WR at `now`; returns the cycle write data is fully latched.
    pub fn write(&mut self, flat: usize, now: Cycle, t: &Timings) -> Cycle {
        debug_assert!(
            self.open[flat].is_some() && now >= self.state[flat].next_col,
            "illegal WR at {now}"
        );
        let b = &mut self.state[flat];
        b.row_hits_open += 1;
        let data_end = now + t.t_cwl + t.t_burst;
        b.next_pre = b.next_pre.max(data_end + t.t_wr);
        data_end
    }

    /// Issue a PRE at `now`. Caller must have checked
    /// [`Self::can_precharge`].
    pub fn precharge(&mut self, flat: usize, now: Cycle, t: &Timings) {
        debug_assert!(self.can_precharge(flat, now), "illegal PRE at {now}");
        self.close(flat, now + t.t_rp);
    }

    /// Close `flat`'s row buffer, ready to re-activate at `next_act`.
    fn close(&mut self, flat: usize, next_act: Cycle) {
        self.open[flat] = None;
        let b = &mut self.state[flat];
        b.next_act = next_act;
        b.next_col = Cycle::MAX;
    }

    /// The perfect predictor's retroactive PRE: if a PRE issued at the
    /// earliest legal time after `flat`'s last access would have completed
    /// by `now`, close the row as if it had. Returns whether it closed.
    pub fn oracle_precharge(&mut self, flat: usize, now: Cycle, t: &Timings) -> bool {
        if self.open[flat].is_none() {
            return false;
        }
        let ready = self.state[flat].next_pre.saturating_add(t.t_rp);
        if now < ready {
            return false;
        }
        self.close(flat, ready);
        true
    }

    /// Refresh completed at `done`: `flat` is idle and may activate then.
    /// (`next_act` is always finite while the μbank is precharged.)
    pub fn refresh_until(&mut self, flat: usize, done: Cycle) {
        debug_assert!(self.open[flat].is_none(), "refresh with open row");
        let b = &mut self.state[flat];
        b.next_act = b.next_act.max(done);
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
        let b = Microbanks::new(1);
        assert!(b.can_activate(0, 0));
        assert!(!b.can_column(0, 0, 1000));
        assert!(!b.can_precharge(0, 1000));
    }

    #[test]
    fn act_to_column_respects_trcd() {
        let t = t();
        let mut b = Microbanks::new(1);
        b.activate(0, 5, 100, &t);
        assert!(!b.can_column(0, 5, 100 + t.t_rcd - 1));
        assert!(b.can_column(0, 5, 100 + t.t_rcd));
        assert!(!b.can_column(0, 6, 100 + t.t_rcd), "wrong row must miss");
    }

    #[test]
    fn act_to_pre_respects_tras() {
        let t = t();
        let mut b = Microbanks::new(1);
        b.activate(0, 1, 0, &t);
        assert!(!b.can_precharge(0, t.t_ras - 1));
        assert!(b.can_precharge(0, t.t_ras));
    }

    #[test]
    fn pre_to_act_respects_trp() {
        let t = t();
        let mut b = Microbanks::new(1);
        b.activate(0, 1, 0, &t);
        b.precharge(0, t.t_ras, &t);
        assert!(!b.can_activate(0, t.t_ras + t.t_rp - 1));
        assert!(b.can_activate(0, t.t_ras + t.t_rp));
    }

    #[test]
    fn read_pushes_out_precharge() {
        let t = t();
        let mut b = Microbanks::new(1);
        b.activate(0, 1, 0, &t);
        let rd_at = t.t_ras - 2; // read just before tRAS expires
        let _ = b.read(0, rd_at, &t);
        assert!(
            !b.can_precharge(0, t.t_ras),
            "tRTP extends beyond tRAS here"
        );
        assert!(b.can_precharge(0, rd_at + t.t_rtp));
    }

    #[test]
    fn write_recovery_blocks_precharge() {
        let t = t();
        let mut b = Microbanks::new(1);
        b.activate(0, 1, 0, &t);
        let wr_at = t.t_rcd;
        let data_end = b.write(0, wr_at, &t);
        assert_eq!(data_end, wr_at + t.t_cwl + t.t_burst);
        assert!(!b.can_precharge(0, data_end + t.t_wr - 1));
        assert!(b.can_precharge(0, data_end + t.t_wr));
    }

    #[test]
    fn row_hit_counter_tracks_open_row() {
        let t = t();
        let mut b = Microbanks::new(1);
        b.activate(0, 1, 0, &t);
        let _ = b.read(0, t.t_rcd, &t);
        let _ = b.read(0, t.t_rcd + t.t_ccd, &t);
        assert_eq!(b.state(0).row_hits_open, 2);
        b.precharge(0, b.state(0).next_pre, &t);
        assert!(b.is_idle(0));
    }

    #[test]
    fn full_cycle_takes_at_least_trc() {
        // ACT@0 → earliest PRE @tRAS → earliest next ACT @tRAS+tRP = tRC.
        let t = t();
        let mut b = Microbanks::new(1);
        b.activate(0, 1, 0, &t);
        let pre_at = (0..).find(|&c| b.can_precharge(0, c)).unwrap();
        b.precharge(0, pre_at, &t);
        let act_at = (pre_at..).find(|&c| b.can_activate(0, c)).unwrap();
        assert_eq!(act_at, t.t_rc());
    }
}
