//! Page-management policies (paper §V).
//!
//! When a column access completes and the queue still holds requests for
//! the same bank, every policy behaves identically (the scheduler serves
//! the queue). Policies differ in the *speculative* case — the queue holds
//! no request for the bank:
//!
//! * **open** — always keep the row open, betting on a future row hit
//!   (Rixner et al. \[50\]); the winner under μbanks;
//! * **close** — always precharge immediately, betting on a row miss;
//! * **minimalist-open** — keep the row open for a fixed interval (tRC,
//!   after Kaseridis et al. \[32\]), then close;
//! * **predictive** — consult a [`crate::predictor`] scheme;
//! * **perfect** — the oracle: enjoys row hits as if open and row misses as
//!   if closed-at-the-earliest-legal-time.

use crate::predictor::{
    GlobalPredictor, LocalPredictor, PageDecision, PredictorKind, TournamentPredictor,
};
use microbank_core::Cycle;

/// Which page-management policy a controller runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    Open,
    Close,
    /// Keep a speculatively-open row for `window_cycles`, then close.
    MinimalistOpen {
        window_cycles: u64,
    },
    Predictive(PredictorKind),
}

impl PolicyKind {
    /// Fig. 13 bar mnemonic (C, O, L, T, P).
    pub fn mnemonic(&self) -> &'static str {
        match self {
            PolicyKind::Open => "O",
            PolicyKind::Close => "C",
            PolicyKind::MinimalistOpen { .. } => "M",
            PolicyKind::Predictive(PredictorKind::Local) => "L",
            PolicyKind::Predictive(PredictorKind::Global) => "G",
            PolicyKind::Predictive(PredictorKind::Tournament) => "T",
            PolicyKind::Predictive(PredictorKind::Perfect) => "P",
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::Open => "open-page",
            PolicyKind::Close => "close-page",
            PolicyKind::MinimalistOpen { .. } => "minimalist-open",
            PolicyKind::Predictive(k) => k.label(),
        }
    }

    /// Does this policy consult a trained predictor?
    pub fn is_predictive(&self) -> bool {
        matches!(self, PolicyKind::Predictive(_))
    }
}

/// A controller's live page policy: the configured [`PolicyKind`] together
/// with the state its speculative decisions train. Every page decision is
/// made and scored here; the controller only schedules the precharges.
pub(crate) enum Policy {
    /// Open, close, minimalist-open and the perfect oracle train nothing.
    Static(PolicyKind),
    Local(LocalPredictor),
    Global(GlobalPredictor),
    Tournament(TournamentPredictor),
}

impl Policy {
    /// Policy state for a controller with `ubanks` flat μbanks serving
    /// `threads` hardware threads.
    pub fn new(kind: PolicyKind, ubanks: usize, threads: usize) -> Self {
        let threads = threads.max(1);
        match kind {
            PolicyKind::Predictive(PredictorKind::Local) => {
                Policy::Local(LocalPredictor::new(ubanks))
            }
            PolicyKind::Predictive(PredictorKind::Global) => {
                Policy::Global(GlobalPredictor::new(threads))
            }
            PolicyKind::Predictive(PredictorKind::Tournament) => {
                Policy::Tournament(TournamentPredictor::new(ubanks, threads))
            }
            kind => Policy::Static(kind),
        }
    }

    /// The perfect oracle ("P" in Fig. 13): it guesses "keep open" and
    /// closes retroactively when the next request resolves the guess.
    pub fn is_oracle(&self) -> bool {
        matches!(
            self,
            Policy::Static(PolicyKind::Predictive(PredictorKind::Perfect))
        )
    }

    /// Speculative decision for μbank `flat`, whose queue just drained
    /// after serving `thread`: the guess that is scored when the next
    /// request arrives, and how many cycles from now to close the row
    /// (`None` leaves it open).
    pub fn decide(&self, flat: usize, thread: u16) -> (PageDecision, Option<Cycle>) {
        let guess = match self {
            Policy::Static(PolicyKind::Close) => PageDecision::Close,
            Policy::Static(_) => PageDecision::KeepOpen,
            Policy::Local(l) => l.predict(flat),
            Policy::Global(g) => g.predict(thread),
            Policy::Tournament(t) => t.predict(flat, thread),
        };
        let close_after = match (guess, self) {
            (PageDecision::Close, _) => Some(0),
            (_, Policy::Static(PolicyKind::MinimalistOpen { window_cycles })) => {
                Some(*window_cycles)
            }
            _ => None,
        };
        (guess, close_after)
    }

    /// Score and train on a resolved decision: `outcome` is what would
    /// have been right. Returns whether the guess counts as correct (the
    /// perfect oracle is correct by construction).
    pub fn resolve(
        &mut self,
        flat: usize,
        thread: u16,
        guess: PageDecision,
        outcome: PageDecision,
    ) -> bool {
        match self {
            Policy::Local(l) => l.update(flat, guess, outcome),
            Policy::Global(g) => g.update(thread, guess, outcome),
            Policy::Tournament(t) => t.update(flat, thread, guess, outcome),
            Policy::Static(_) => return self.is_oracle() || guess == outcome,
        }
        guess == outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonics_match_fig13() {
        assert_eq!(PolicyKind::Open.mnemonic(), "O");
        assert_eq!(PolicyKind::Close.mnemonic(), "C");
        assert_eq!(PolicyKind::Predictive(PredictorKind::Local).mnemonic(), "L");
        assert_eq!(
            PolicyKind::Predictive(PredictorKind::Tournament).mnemonic(),
            "T"
        );
        assert_eq!(
            PolicyKind::Predictive(PredictorKind::Perfect).mnemonic(),
            "P"
        );
    }

    #[test]
    fn predictive_classification() {
        assert!(!PolicyKind::Open.is_predictive());
        assert!(!PolicyKind::MinimalistOpen { window_cycles: 98 }.is_predictive());
        assert!(PolicyKind::Predictive(PredictorKind::Global).is_predictive());
    }
}
