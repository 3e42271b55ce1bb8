//! Per-μbank heat counters. Every activate and row-buffer outcome is
//! attributed to the flat μbank index that caused it, so a run can be
//! rendered as an `nW×nB` heat map: which μbanks the address interleave
//! actually spreads traffic across, and where conflicts concentrate.

use crate::json::JsonWriter;
use std::fmt::Write as _;

/// Activity counters indexed by flat μbank id (see the channel's flat
/// index layout: `(rank·banksPerRank + bank)·nW·nB + b·nW + w`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeatCounters {
    /// Row-partition degree (sub-row width divisor).
    pub n_w: usize,
    /// Bank-partition degree (rows-per-μbank divisor).
    pub n_b: usize,
    pub activates: Vec<u64>,
    pub row_hits: Vec<u64>,
    pub row_conflicts: Vec<u64>,
    pub row_closed: Vec<u64>,
    /// ECC-corrected errors attributed to the μbank (reliability
    /// subsystem; all-zero when fault injection is disabled).
    pub corrected: Vec<u64>,
}

impl HeatCounters {
    pub fn new(n_ubanks: usize, n_w: usize, n_b: usize) -> Self {
        HeatCounters {
            n_w,
            n_b,
            activates: vec![0; n_ubanks],
            row_hits: vec![0; n_ubanks],
            row_conflicts: vec![0; n_ubanks],
            row_closed: vec![0; n_ubanks],
            corrected: vec![0; n_ubanks],
        }
    }

    pub fn num_ubanks(&self) -> usize {
        self.activates.len()
    }

    pub fn total_activates(&self) -> u64 {
        self.activates.iter().sum()
    }

    pub fn total_hits(&self) -> u64 {
        self.row_hits.iter().sum()
    }

    pub fn total_conflicts(&self) -> u64 {
        self.row_conflicts.iter().sum()
    }

    /// Accumulate another channel's counters (element-wise; shapes must
    /// match — i.e. both channels share one `MemConfig`). Saturating, so a
    /// cross-channel merge of counters near `u64::MAX` pins at the ceiling
    /// instead of wrapping (the same contract as `Histogram::merge`).
    pub fn merge(&mut self, other: &HeatCounters) {
        assert_eq!(self.num_ubanks(), other.num_ubanks(), "heat shape mismatch");
        for (a, b) in self.activates.iter_mut().zip(&other.activates) {
            *a = a.saturating_add(*b);
        }
        for (a, b) in self.row_hits.iter_mut().zip(&other.row_hits) {
            *a = a.saturating_add(*b);
        }
        for (a, b) in self.row_conflicts.iter_mut().zip(&other.row_conflicts) {
            *a = a.saturating_add(*b);
        }
        for (a, b) in self.row_closed.iter_mut().zip(&other.row_closed) {
            *a = a.saturating_add(*b);
        }
        for (a, b) in self.corrected.iter_mut().zip(&other.corrected) {
            *a = a.saturating_add(*b);
        }
    }

    /// Counter deltas since an earlier snapshot of the same counters
    /// (element-wise saturating subtraction; shapes must match). Used to
    /// restrict a run's heat map to the measurement window.
    pub fn delta_since(&self, earlier: &HeatCounters) -> HeatCounters {
        assert_eq!(
            self.num_ubanks(),
            earlier.num_ubanks(),
            "heat shape mismatch"
        );
        let sub = |a: &[u64], b: &[u64]| -> Vec<u64> {
            a.iter().zip(b).map(|(x, y)| x.saturating_sub(*y)).collect()
        };
        HeatCounters {
            n_w: self.n_w,
            n_b: self.n_b,
            activates: sub(&self.activates, &earlier.activates),
            row_hits: sub(&self.row_hits, &earlier.row_hits),
            row_conflicts: sub(&self.row_conflicts, &earlier.row_conflicts),
            row_closed: sub(&self.row_closed, &earlier.row_closed),
            corrected: sub(&self.corrected, &earlier.corrected),
        }
    }

    /// Sum a per-flat counter over banks into the `nB×nW` within-bank grid
    /// (row = b, column = w): the shape the paper's μbank partitioning is
    /// parameterized on.
    fn fold_grid(&self, per_flat: &[u64]) -> Vec<Vec<u64>> {
        let per_bank = self.n_w * self.n_b;
        let mut grid = vec![vec![0u64; self.n_w]; self.n_b];
        for (flat, &v) in per_flat.iter().enumerate() {
            let within = flat % per_bank;
            grid[within / self.n_w][within % self.n_w] += v;
        }
        grid
    }

    /// The activate heat map folded to the within-bank `nB×nW` grid.
    pub fn activate_grid(&self) -> Vec<Vec<u64>> {
        self.fold_grid(&self.activates)
    }

    /// Imbalance of a per-flat counter: max/mean over μbanks (1.0 =
    /// perfectly even; large = hot-spotted). Returns 0 for an all-zero
    /// counter.
    pub fn imbalance(per_flat: &[u64]) -> f64 {
        let total: u64 = per_flat.iter().sum();
        if total == 0 || per_flat.is_empty() {
            return 0.0;
        }
        let mean = total as f64 / per_flat.len() as f64;
        *per_flat.iter().max().unwrap() as f64 / mean
    }

    /// Plain-text heat map: one `nB×nW` matrix per counter, summed over
    /// banks, plus per-counter totals — the quick-look artifact.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, data) in [
            ("activates", &self.activates),
            ("row_hits", &self.row_hits),
            ("row_conflicts", &self.row_conflicts),
            ("corrected", &self.corrected),
        ] {
            // Corrected-error heat only renders when the reliability
            // subsystem produced any (keeps the default artifact stable).
            if name == "corrected" && data.iter().all(|&v| v == 0) {
                continue;
            }
            let grid = self.fold_grid(data);
            let total: u64 = data.iter().sum();
            let _ = writeln!(
                out,
                "{name} (total {total}, imbalance {:.2})",
                Self::imbalance(data)
            );
            out.push_str("  b\\w ");
            for w in 0..self.n_w {
                let _ = write!(out, "{w:>10}");
            }
            out.push('\n');
            for (b, row) in grid.iter().enumerate() {
                let _ = write!(out, "  {b:>3} ");
                for v in row {
                    let _ = write!(out, "{v:>10}");
                }
                out.push('\n');
            }
        }
        out
    }

    /// CSV with one row per flat μbank:
    /// `flat,bank,b,w,activates,row_hits,row_conflicts,row_closed,corrected`.
    pub fn to_csv(&self) -> String {
        let per_bank = self.n_w * self.n_b;
        let mut out =
            String::from("flat,bank,b,w,activates,row_hits,row_conflicts,row_closed,corrected\n");
        for flat in 0..self.num_ubanks() {
            let within = flat % per_bank;
            let _ = writeln!(
                out,
                "{flat},{},{},{},{},{},{},{},{}",
                flat / per_bank,
                within / self.n_w,
                within % self.n_w,
                self.activates[flat],
                self.row_hits[flat],
                self.row_conflicts[flat],
                self.row_closed[flat],
                self.corrected[flat],
            );
        }
        out
    }

    /// JSON object with shape metadata and the per-flat counter arrays.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object()
            .key("n_w")
            .uint(self.n_w as u64)
            .key("n_b")
            .uint(self.n_b as u64)
            .key("n_ubanks")
            .uint(self.num_ubanks() as u64);
        for (name, data) in [
            ("activates", &self.activates),
            ("row_hits", &self.row_hits),
            ("row_conflicts", &self.row_conflicts),
            ("row_closed", &self.row_closed),
            ("corrected", &self.corrected),
        ] {
            w.key(name).begin_array();
            for &v in data.iter() {
                w.uint(v);
            }
            w.end_array();
        }
        w.end_object();
        w.finish()
    }
}

/// Per-channel telemetry state owned by the DRAM channel model. Boxed
/// behind an `Option` on the channel so the disabled path costs one branch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelTelemetry {
    pub heat: HeatCounters,
}

impl ChannelTelemetry {
    pub fn new(n_ubanks: usize, n_w: usize, n_b: usize) -> Self {
        ChannelTelemetry {
            heat: HeatCounters::new(n_ubanks, n_w, n_b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn grid_folds_over_banks() {
        // 2 banks × (nW=2, nB=2) = 8 flat μbanks.
        let mut h = HeatCounters::new(8, 2, 2);
        h.activates[0] = 1; // bank0 b0 w0
        h.activates[3] = 2; // bank0 b1 w1
        h.activates[4] = 10; // bank1 b0 w0
        let g = h.activate_grid();
        assert_eq!(g[0][0], 11);
        assert_eq!(g[1][1], 2);
        assert_eq!(h.total_activates(), 13);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = HeatCounters::new(4, 2, 2);
        let mut b = HeatCounters::new(4, 2, 2);
        a.row_hits[1] = 5;
        b.row_hits[1] = 7;
        b.row_conflicts[2] = 3;
        a.merge(&b);
        assert_eq!(a.row_hits[1], 12);
        assert_eq!(a.total_conflicts(), 3);
    }

    #[test]
    fn merge_saturates_at_ceiling() {
        let mut a = HeatCounters::new(4, 2, 2);
        let mut b = HeatCounters::new(4, 2, 2);
        a.activates[0] = u64::MAX - 2;
        b.activates[0] = 100;
        a.corrected[3] = 5;
        b.corrected[3] = u64::MAX;
        a.merge(&b);
        assert_eq!(a.activates[0], u64::MAX);
        assert_eq!(a.corrected[3], u64::MAX);
        assert_eq!(a.activates[1], 0);
    }

    #[test]
    fn imbalance_metric() {
        assert_eq!(HeatCounters::imbalance(&[0, 0]), 0.0);
        assert!((HeatCounters::imbalance(&[2, 2, 2, 2]) - 1.0).abs() < 1e-12);
        assert!((HeatCounters::imbalance(&[8, 0, 0, 0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn csv_lists_every_ubank() {
        let h = HeatCounters::new(8, 2, 2);
        assert_eq!(h.to_csv().lines().count(), 9);
        assert!(h.to_csv().starts_with("flat,bank,b,w,"));
    }

    #[test]
    fn json_round_trips_totals() {
        let mut h = HeatCounters::new(4, 2, 2);
        h.activates = vec![1, 2, 3, 4];
        let v = parse(&h.to_json()).unwrap();
        let acts: f64 = v
            .get("activates")
            .unwrap()
            .items()
            .iter()
            .map(|x| x.as_f64().unwrap())
            .sum();
        assert_eq!(acts, 10.0);
        assert_eq!(v.get("n_w").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn text_rendering_mentions_counters() {
        let h = HeatCounters::new(4, 2, 2);
        let t = h.to_text();
        assert!(t.contains("activates"));
        assert!(t.contains("row_conflicts"));
    }
}
