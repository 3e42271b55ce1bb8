//! Fig. 1: per-bit energy breakdown of the three memory-system designs —
//! conventional PCB-based DDR3, TSI-based LPDDR, and TSI + μbank.
//!
//! The figure's point: TSI removes most of the I/O energy, which leaves the
//! design "unbalanced" — ACT/PRE dominates — and μbank then removes most of
//! the ACT/PRE energy.

use crate::energy::EnergyModel;
use crate::params::EnergyParams;
use microbank_core::geometry::UbankConfig;

/// The three bars of Fig. 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// Conventional DDR3 DIMMs over PCB.
    PcbBaseline,
    /// LPDDR-type stacked dies over TSI, conventional banks.
    Tsi,
    /// LPDDR-type stacked dies over TSI with μbank partitioning (nW = 8,
    /// a <3% area-overhead configuration).
    TsiMicrobank,
}

impl SystemKind {
    pub fn label(&self) -> &'static str {
        match self {
            SystemKind::PcbBaseline => "PCB (baseline)",
            SystemKind::Tsi => "TSI",
            SystemKind::TsiMicrobank => "TSI+ubanks",
        }
    }

    fn energy_model(&self) -> EnergyModel {
        match self {
            SystemKind::PcbBaseline => {
                EnergyModel::new(EnergyParams::ddr3_pcb(), UbankConfig::BASELINE)
            }
            SystemKind::Tsi => EnergyModel::new(EnergyParams::lpddr_tsi(), UbankConfig::BASELINE),
            SystemKind::TsiMicrobank => {
                EnergyModel::new(EnergyParams::lpddr_tsi(), UbankConfig::new(8, 2))
            }
        }
    }
}

/// Per-bit energy breakdown (pJ/b), the Fig. 1 stacked-bar buckets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BitEnergyBreakdown {
    /// DRAM core background energy amortized per transferred bit
    /// (peripheral/static; "Core" in Fig. 1).
    pub core_pj_b: f64,
    pub act_pre_pj_b: f64,
    pub rdwr_pj_b: f64,
    pub io_pj_b: f64,
}

impl BitEnergyBreakdown {
    pub fn total(&self) -> f64 {
        self.core_pj_b + self.act_pre_pj_b + self.rdwr_pj_b + self.io_pj_b
    }
}

/// Compute one Fig. 1 bar. `beta` is the ACT-per-column ratio of the
/// traffic (Fig. 1 uses low-locality traffic, β = 1) and `utilization` the
/// fraction of peak channel bandwidth carried (amortizes static power).
pub fn system_breakdown(kind: SystemKind, beta: f64, utilization: f64) -> BitEnergyBreakdown {
    let m = kind.energy_model();
    let peak_gbps = match kind {
        SystemKind::PcbBaseline => 12.8,
        _ => 16.0,
    };
    let bits_per_s = utilization * peak_gbps * 1e9 * 8.0;
    let core_pj_b = m.params.static_mw_per_channel * 1e-3 / bits_per_s * 1e12;
    BitEnergyBreakdown {
        core_pj_b,
        act_pre_pj_b: beta * m.act_pre_nj() * 1000.0 / 512.0,
        rdwr_pj_b: m.params.rdwr_pj_per_bit,
        io_pj_b: m.params.io_pj_per_bit,
    }
}

/// All three Fig. 1 bars at the figure's nominal traffic (β = 1, 30%
/// channel utilization).
pub fn figure1() -> Vec<(SystemKind, BitEnergyBreakdown)> {
    [
        SystemKind::PcbBaseline,
        SystemKind::Tsi,
        SystemKind::TsiMicrobank,
    ]
    .into_iter()
    .map(|k| (k, system_breakdown(k, 1.0, 0.3)))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcb_io_is_20_pj_per_bit() {
        let b = system_breakdown(SystemKind::PcbBaseline, 1.0, 0.3);
        assert_eq!(b.io_pj_b, 20.0);
        assert_eq!(b.rdwr_pj_b, 13.0);
    }

    #[test]
    fn tsi_shifts_dominance_to_act_pre() {
        let pcb = system_breakdown(SystemKind::PcbBaseline, 1.0, 0.3);
        let tsi = system_breakdown(SystemKind::Tsi, 1.0, 0.3);
        // I/O shrinks 5×…
        assert!(tsi.io_pj_b * 4.0 < pcb.io_pj_b);
        // …so ACT/PRE becomes the dominant bucket of the TSI bar.
        assert!(tsi.act_pre_pj_b > 0.5 * tsi.total());
    }

    #[test]
    fn microbank_rebalances_the_tsi_bar() {
        let tsi = system_breakdown(SystemKind::Tsi, 1.0, 0.3);
        let ub = system_breakdown(SystemKind::TsiMicrobank, 1.0, 0.3);
        assert!(ub.act_pre_pj_b < tsi.act_pre_pj_b / 4.0);
        assert!(ub.total() < 0.4 * tsi.total());
        // No longer a single dominant bucket.
        assert!(ub.act_pre_pj_b < 0.6 * ub.total());
    }

    #[test]
    fn figure1_bar_order_and_magnitudes() {
        let bars = figure1();
        assert_eq!(bars.len(), 3);
        let totals: Vec<f64> = bars.iter().map(|(_, b)| b.total()).collect();
        // Strictly decreasing energy per bit, PCB ≈ 100 pJ/b territory.
        assert!(totals[0] > totals[1] && totals[1] > totals[2]);
        assert!(totals[0] > 80.0 && totals[0] < 120.0, "{}", totals[0]);
        assert!(totals[2] < 25.0, "{}", totals[2]);
    }
}
