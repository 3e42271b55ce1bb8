//! Patrol-scrub schedule: a deadline-driven walk over every (μbank, row)
//! of the channel. The memory controller services the walk on idle
//! command slots (demand traffic and refresh always win), issuing one
//! `Scrub` command per due target — an internal RAS cycle that reads,
//! ECC-corrects, and restores the row, occupying the μbank for tRC.

use microbank_core::Cycle;

#[derive(Debug, Clone)]
pub struct Scrubber {
    interval: Cycle,
    next_due: Cycle,
    n_ubanks: u32,
    ubank_rows: u32,
    flat: u32,
    row: u32,
    /// Full sweeps of the channel completed.
    pub passes: u64,
}

impl Scrubber {
    pub fn new(interval: Cycle, n_ubanks: usize, ubank_rows: usize) -> Self {
        Scrubber {
            interval,
            next_due: interval,
            n_ubanks: n_ubanks as u32,
            ubank_rows: ubank_rows as u32,
            flat: 0,
            row: 0,
            passes: 0,
        }
    }

    /// Is a scrub command due at `now`?
    pub fn due(&self, now: Cycle) -> bool {
        now >= self.next_due
    }

    /// Cycle at which the next scrub becomes due: an idle controller
    /// sleeps until then at the latest.
    pub fn next_due(&self) -> Cycle {
        self.next_due
    }

    /// Current walk target.
    pub fn target(&self) -> (u32, u32) {
        (self.flat, self.row)
    }

    /// Step the walk cursor without touching the deadline (used to skip
    /// already-retired targets without spending a command slot).
    pub fn skip(&mut self) {
        self.advance_cursor();
    }

    /// A scrub command for the current target issued at `now`: reschedule
    /// and step the cursor.
    pub fn issued(&mut self, now: Cycle) {
        self.next_due = now + self.interval;
        self.advance_cursor();
    }

    fn advance_cursor(&mut self) {
        self.row += 1;
        if self.row >= self.ubank_rows {
            self.row = 0;
            self.flat += 1;
            if self.flat >= self.n_ubanks {
                self.flat = 0;
                self.passes += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_covers_rows_then_ubanks() {
        let mut s = Scrubber::new(100, 2, 3);
        assert!(!s.due(99));
        assert!(s.due(100));
        assert_eq!(s.target(), (0, 0));
        s.issued(100);
        assert!(!s.due(150));
        assert!(s.due(200));
        assert_eq!(s.target(), (0, 1));
        s.issued(200);
        s.issued(300);
        assert_eq!(s.target(), (1, 0), "row wrap advances the μbank");
    }

    #[test]
    fn full_sweep_counts_a_pass() {
        let mut s = Scrubber::new(1, 2, 2);
        for i in 0..4 {
            s.issued(i);
        }
        assert_eq!(s.passes, 1);
        assert_eq!(s.target(), (0, 0));
    }

    #[test]
    fn skip_moves_cursor_not_deadline() {
        let mut s = Scrubber::new(10, 4, 4);
        assert!(s.due(10));
        s.skip();
        assert!(s.due(10), "deadline unchanged by skip");
        assert_eq!(s.target(), (0, 1));
    }
}
