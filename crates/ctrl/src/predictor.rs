//! Prediction-based page management (paper §V).
//!
//! When the request queue holds no future request for a bank, the
//! controller must decide *speculatively* whether to keep the row open or
//! close it. The paper builds this decision on a standard 2-bit bimodal
//! branch predictor with states 00 (strongly open), 01 (open), 10 (close),
//! 11 (strongly close):
//!
//! * **local** — one counter per bank, indexed by bank history;
//! * **global** — one counter per hardware thread;
//! * **tournament** — a bimodal chooser that picks among the static open
//!   policy, the static close policy, the local predictor, and the global
//!   predictor (§VI-C);
//! * **perfect** — the oracle upper bound ("P" in Fig. 13).
//!
//! The prediction outcome resolves when the *next* request reaches the same
//! bank: if it hits the previously open row, "open" was correct; otherwise
//! "close" was correct.

/// Speculative page-management decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageDecision {
    KeepOpen,
    Close,
}

/// Which prediction scheme a controller runs (Fig. 13's C/O/L/T/P bars are
/// expressed as static policies or these predictors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictorKind {
    Local,
    Global,
    Tournament,
    Perfect,
}

impl PredictorKind {
    pub fn label(&self) -> &'static str {
        match self {
            PredictorKind::Local => "local",
            PredictorKind::Global => "global",
            PredictorKind::Tournament => "tournament",
            PredictorKind::Perfect => "perfect",
        }
    }
}

/// A 2-bit saturating bimodal counter over {open, close} (paper §V):
/// 0 = strongly open, 1 = open, 2 = close, 3 = strongly close.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BimodalCounter(u8);

impl BimodalCounter {
    pub fn predict(&self) -> PageDecision {
        if self.0 < 2 {
            PageDecision::KeepOpen
        } else {
            PageDecision::Close
        }
    }

    /// Train toward the observed best decision.
    pub fn update(&mut self, actual_best: PageDecision) {
        match actual_best {
            PageDecision::KeepOpen => self.0 = self.0.saturating_sub(1),
            PageDecision::Close => self.0 = (self.0 + 1).min(3),
        }
    }

    pub fn state(&self) -> u8 {
        self.0
    }
}

/// Hit/miss bookkeeping for Fig. 13's "prediction hit rate" series.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictorStats {
    pub predictions: u64,
    pub correct: u64,
}

impl PredictorStats {
    pub fn record(&mut self, correct: bool) {
        self.predictions += 1;
        self.correct += correct as u64;
    }

    pub fn hit_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.correct as f64 / self.predictions as f64
        }
    }
}

/// Per-bank bimodal predictor ("L" in Fig. 13).
#[derive(Debug, Clone)]
pub struct LocalPredictor {
    counters: Vec<BimodalCounter>,
    pub stats: PredictorStats,
}

impl LocalPredictor {
    pub fn new(banks: usize) -> Self {
        LocalPredictor {
            counters: vec![BimodalCounter::default(); banks],
            stats: PredictorStats::default(),
        }
    }

    pub fn predict(&self, bank: usize) -> PageDecision {
        self.counters[bank].predict()
    }

    /// `outcome`: the decision that would have been correct.
    pub fn update(&mut self, bank: usize, predicted: PageDecision, outcome: PageDecision) {
        self.stats.record(predicted == outcome);
        self.counters[bank].update(outcome);
    }
}

/// Per-thread bimodal predictor ("global" in §VI-C; never the best
/// performer in the paper, but required for the tournament study).
#[derive(Debug, Clone)]
pub struct GlobalPredictor {
    counters: Vec<BimodalCounter>,
    pub stats: PredictorStats,
}

impl GlobalPredictor {
    pub fn new(threads: usize) -> Self {
        GlobalPredictor {
            counters: vec![BimodalCounter::default(); threads],
            stats: PredictorStats::default(),
        }
    }

    pub fn predict(&self, thread: u16) -> PageDecision {
        self.counters[thread as usize].predict()
    }

    pub fn update(&mut self, thread: u16, predicted: PageDecision, outcome: PageDecision) {
        self.stats.record(predicted == outcome);
        self.counters[thread as usize].update(outcome);
    }
}

/// The four candidate policies the tournament chooser arbitrates between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Candidate {
    StaticOpen,
    StaticClose,
    Local,
    Global,
}

const CANDIDATES: [Candidate; 4] = [
    Candidate::StaticOpen,
    Candidate::StaticClose,
    Candidate::Local,
    Candidate::Global,
];

/// Tournament predictor ("T" in Fig. 13): per-bank confidence counters pick
/// one of {open, close, local, global}; all four are trained on every
/// resolved outcome, and the chooser rewards whichever candidates were
/// right (§VI-C: "we applied a bimodal scheme to pick one out of the open,
/// close, local, and global predictors").
#[derive(Debug, Clone)]
pub struct TournamentPredictor {
    local: LocalPredictor,
    global: GlobalPredictor,
    /// Per-bank confidence for each candidate (saturating 0..=7).
    confidence: Vec<[u8; 4]>,
    pub stats: PredictorStats,
}

impl TournamentPredictor {
    pub fn new(banks: usize, threads: usize) -> Self {
        TournamentPredictor {
            local: LocalPredictor::new(banks),
            global: GlobalPredictor::new(threads),
            confidence: vec![[4, 4, 4, 4]; banks],
            stats: PredictorStats::default(),
        }
    }

    fn candidate_prediction(&self, c: Candidate, bank: usize, thread: u16) -> PageDecision {
        match c {
            Candidate::StaticOpen => PageDecision::KeepOpen,
            Candidate::StaticClose => PageDecision::Close,
            Candidate::Local => self.local.predict(bank),
            Candidate::Global => self.global.predict(thread),
        }
    }

    pub fn predict(&self, bank: usize, thread: u16) -> PageDecision {
        let conf = &self.confidence[bank];
        let best = (0..4).max_by_key(|&i| conf[i]).unwrap();
        self.candidate_prediction(CANDIDATES[best], bank, thread)
    }

    pub fn update(
        &mut self,
        bank: usize,
        thread: u16,
        predicted: PageDecision,
        outcome: PageDecision,
    ) {
        self.stats.record(predicted == outcome);
        // Reward/punish each candidate by whether *it* would have been right.
        let preds: Vec<PageDecision> = CANDIDATES
            .iter()
            .map(|&c| self.candidate_prediction(c, bank, thread))
            .collect();
        for (i, p) in preds.iter().enumerate() {
            let conf = &mut self.confidence[bank][i];
            if *p == outcome {
                *conf = (*conf + 1).min(7);
            } else {
                *conf = conf.saturating_sub(1);
            }
        }
        // Train the component predictors (their own stats track component
        // accuracy for the Fig. 13 "L" bars when run standalone).
        self.local.update(bank, preds[2], outcome);
        self.global.update(thread, preds[3], outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bimodal_state_machine_matches_paper() {
        let mut c = BimodalCounter::default();
        assert_eq!(c.state(), 0); // strongly open
        assert_eq!(c.predict(), PageDecision::KeepOpen);
        c.update(PageDecision::Close);
        assert_eq!(c.state(), 1); // open
        assert_eq!(c.predict(), PageDecision::KeepOpen);
        c.update(PageDecision::Close);
        assert_eq!(c.state(), 2); // close
        assert_eq!(c.predict(), PageDecision::Close);
        c.update(PageDecision::Close);
        assert_eq!(c.state(), 3); // strongly close (saturates)
        c.update(PageDecision::Close);
        assert_eq!(c.state(), 3);
        c.update(PageDecision::KeepOpen);
        assert_eq!(c.state(), 2);
    }

    #[test]
    fn local_learns_streaky_banks() {
        let mut l = LocalPredictor::new(2);
        // Bank 0 always reuses its row; bank 1 never does.
        for _ in 0..8 {
            let p0 = l.predict(0);
            l.update(0, p0, PageDecision::KeepOpen);
            let p1 = l.predict(1);
            l.update(1, p1, PageDecision::Close);
        }
        assert_eq!(l.predict(0), PageDecision::KeepOpen);
        assert_eq!(l.predict(1), PageDecision::Close);
        assert!(l.stats.hit_rate() > 0.7, "{}", l.stats.hit_rate());
    }

    #[test]
    fn global_indexes_by_thread() {
        let mut g = GlobalPredictor::new(4);
        for _ in 0..4 {
            let p = g.predict(2);
            g.update(2, p, PageDecision::Close);
        }
        assert_eq!(g.predict(2), PageDecision::Close);
        assert_eq!(
            g.predict(0),
            PageDecision::KeepOpen,
            "other threads untouched"
        );
    }

    #[test]
    fn tournament_beats_both_statics_on_mixed_banks() {
        // Bank 0 is open-friendly, bank 1 close-friendly: a static policy
        // is right only half the time overall, the tournament adapts per
        // bank and approaches 100% after warmup.
        let mut t = TournamentPredictor::new(2, 1);
        let mut correct_after_warmup = 0;
        let trials = 200;
        for i in 0..trials {
            for (bank, outcome) in [(0usize, PageDecision::KeepOpen), (1, PageDecision::Close)] {
                let p = t.predict(bank, 0);
                if i >= 20 && p == outcome {
                    correct_after_warmup += 1;
                }
                t.update(bank, 0, p, outcome);
            }
        }
        let rate = correct_after_warmup as f64 / (2.0 * (trials - 20) as f64);
        assert!(rate > 0.95, "tournament rate {rate}");
    }

    #[test]
    fn tournament_tracks_alternation_via_components() {
        // Outcome alternates per access on one bank: the bimodal counters
        // hover, but the chooser's behaviour must remain deterministic and
        // its stats well-formed.
        let mut t = TournamentPredictor::new(1, 1);
        for i in 0..100 {
            let outcome = if i % 2 == 0 {
                PageDecision::KeepOpen
            } else {
                PageDecision::Close
            };
            let p = t.predict(0, 0);
            t.update(0, 0, p, outcome);
        }
        assert_eq!(t.stats.predictions, 100);
        assert!(t.stats.correct <= 100);
    }

    #[test]
    fn stats_hit_rate() {
        let mut s = PredictorStats::default();
        s.record(true);
        s.record(false);
        s.record(true);
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }
}
