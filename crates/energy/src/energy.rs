//! Per-operation DRAM energy and the Fig. 6(b) relative energy matrix.
//!
//! The dominant lever is the activate/precharge energy: an ACT+PRE pair on
//! a full 8 KB page costs 30 nJ (Table I), and a μbank configuration with
//! `nW` wordline partitions activates only `1/nW` of the page, so the pair
//! costs `30 nJ / nW` (plus a small per-μbank latch overhead). Read/write
//! and I/O energy are per-bit values from Table I.

use crate::params::EnergyParams;
use microbank_core::geometry::UbankConfig;
use microbank_core::variant::DeviceVariant;

/// Bits in one 64 B cache-line transfer.
const LINE_BITS: f64 = 512.0;

/// Per-operation DRAM energy model for one (interface, μbank, variant)
/// combination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    pub params: EnergyParams,
    pub ubank: UbankConfig,
    /// Activation-granularity variant (DESIGN §5h). Conventional, μbank
    /// and SALP all activate per-μbank rows, so they share the geometric
    /// formula; only Sectored DRAM's latch accounting differs (sense amps
    /// span all sectors of the row even when one group activates).
    pub variant: DeviceVariant,
}

impl EnergyModel {
    pub fn new(params: EnergyParams, ubank: UbankConfig) -> Self {
        EnergyModel {
            params,
            ubank,
            variant: DeviceVariant::Microbank,
        }
    }

    /// Builder: select the device variant whose activation granularity the
    /// ACT/PRE accounting should follow.
    pub fn with_variant(mut self, v: DeviceVariant) -> Self {
        self.variant = v;
        self
    }

    /// Array energy of one ACT+PRE pair, nJ: the 8 KB-page energy scaled
    /// by the fraction of the page actually activated.
    pub fn act_pre_array_nj(&self) -> f64 {
        self.params.act_pre_nj_8kb / self.ubank.n_w as f64
    }

    /// Latch/sense-amp update energy per activation, nJ. Conventional,
    /// μbank and SALP pay per row buffer present in the bank; Sectored
    /// DRAM's row spans `sectors` latch groups regardless of how many are
    /// activated at once.
    pub fn act_latch_nj(&self) -> f64 {
        let latches = match self.variant {
            DeviceVariant::Sectored { sectors, .. } => sectors,
            _ => self.ubank.ubanks_per_bank(),
        };
        self.params.latch_pj_per_act_per_ubank * latches as f64 / 1000.0
    }

    /// Energy of one ACT+PRE pair, nJ: the 8 KB-page energy divided by the
    /// number of wordline partitions, plus latch update energy that grows
    /// with the μbank count (negligible, §IV-B — but modeled).
    pub fn act_pre_nj(&self) -> f64 {
        self.act_pre_array_nj() + self.act_latch_nj()
    }

    /// DRAM-side datapath energy of one 64 B read or write, nJ (no I/O).
    pub fn rdwr_nj(&self) -> f64 {
        LINE_BITS * self.params.rdwr_pj_per_bit / 1000.0
    }

    /// Inter-die I/O energy of one 64 B transfer, nJ.
    pub fn io_nj(&self) -> f64 {
        LINE_BITS * self.params.io_pj_per_bit / 1000.0
    }

    /// Energy of one all-bank refresh, nJ.
    pub fn refresh_nj(&self) -> f64 {
        self.params.refresh_nj
    }

    /// Average energy per read including amortized activation, nJ, for an
    /// ACT-to-column ratio β (§IV-B): `β · E_actpre + E_rdwr + E_io`.
    pub fn energy_per_read_nj(&self, beta: f64) -> f64 {
        beta * self.act_pre_nj() + self.rdwr_nj() + self.io_nj()
    }

    /// Fig. 6(b): energy per read relative to the unpartitioned baseline at
    /// the same β.
    pub fn relative_energy_per_read(&self, beta: f64) -> f64 {
        let base = EnergyModel::new(self.params, UbankConfig::BASELINE);
        self.energy_per_read_nj(beta) / base.energy_per_read_nj(beta)
    }
}

/// The full Fig. 6(b)-style matrix over `{1,2,4,8,16}²` for a given β,
/// row-major in `nB` (values relative to `(1,1)`).
pub fn figure6b_matrix(params: EnergyParams, beta: f64) -> Vec<Vec<f64>> {
    let degrees = [1usize, 2, 4, 8, 16];
    degrees
        .iter()
        .map(|&nb| {
            degrees
                .iter()
                .map(|&nw| {
                    EnergyModel::new(params, UbankConfig::new(nw, nb))
                        .relative_energy_per_read(beta)
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tsi(nw: usize, nb: usize) -> EnergyModel {
        EnergyModel::new(EnergyParams::lpddr_tsi(), UbankConfig::new(nw, nb))
    }

    #[test]
    fn baseline_act_pre_is_30nj() {
        let e = tsi(1, 1);
        assert!((e.act_pre_nj() - 30.0).abs() < 0.01);
    }

    #[test]
    fn nw_divides_activation_energy() {
        assert!(tsi(8, 1).act_pre_nj() < 30.0 / 8.0 + 0.1);
        assert!(tsi(16, 1).act_pre_nj() < tsi(8, 1).act_pre_nj());
    }

    #[test]
    fn latch_overhead_is_negligible_but_present() {
        // (1,16) has 16× the latches of (1,1) but nearly identical energy.
        let base = tsi(1, 1).act_pre_nj();
        let many = tsi(1, 16).act_pre_nj();
        assert!(many > base);
        assert!((many - base) / base < 0.01, "latch overhead too large");
    }

    #[test]
    fn high_beta_amplifies_nw_savings() {
        // β = 1: activation dominates, nW=16 saves ~80% of read energy.
        let rel_hot = tsi(16, 1).relative_energy_per_read(1.0);
        assert!(rel_hot < 0.25, "{rel_hot}");
        // β = 0.1: activation amortized, savings much smaller.
        let rel_cold = tsi(16, 1).relative_energy_per_read(0.1);
        assert!(rel_cold > rel_hot);
        assert!(rel_cold > 0.5, "{rel_cold}");
    }

    #[test]
    fn nb_alone_barely_changes_energy() {
        let rel = tsi(1, 16).relative_energy_per_read(1.0);
        assert!((rel - 1.0).abs() < 0.01, "{rel}");
    }

    #[test]
    fn fig1_fifteen_x_ratio_reproduced() {
        // §IV-A: ACT+PRE ≈ 15× the energy of a TSI line transfer.
        let e = tsi(1, 1);
        let ratio = e.act_pre_nj() / (e.rdwr_nj() + e.io_nj());
        assert!(ratio > 7.0 && ratio < 16.0, "{ratio}");
    }

    #[test]
    fn matrix_is_monotone_nonincreasing_in_nw() {
        for beta in [1.0, 0.1] {
            let m = figure6b_matrix(EnergyParams::lpddr_tsi(), beta);
            for row in &m {
                for pair in row.windows(2) {
                    assert!(pair[1] <= pair[0] + 1e-9, "beta {beta}: {pair:?}");
                }
            }
        }
    }

    #[test]
    fn energy_per_read_composition() {
        let e = tsi(4, 4);
        let manual = 0.5 * e.act_pre_nj() + e.rdwr_nj() + e.io_nj();
        assert!((e.energy_per_read_nj(0.5) - manual).abs() < 1e-12);
    }

    #[test]
    fn default_variant_matches_legacy_formula() {
        // The variant seam must not change pre-seam numbers: the default
        // (Microbank) reproduces the original closed-form expression.
        let e = tsi(4, 4);
        let p = e.params;
        let legacy = p.act_pre_nj_8kb / 4.0 + p.latch_pj_per_act_per_ubank * 16.0 / 1000.0;
        assert!((e.act_pre_nj() - legacy).abs() < 1e-12);
        assert!((e.act_pre_nj() - e.act_pre_array_nj() - e.act_latch_nj()).abs() < 1e-12);
    }

    #[test]
    fn sectored_pays_latches_for_the_whole_row() {
        use microbank_core::variant::DeviceVariant;
        // 2-of-16 sectored: (nW, nB) = (8, 1) — array energy is 1/8 of the
        // page like μbank(8,1), but the latch term covers all 16 sectors,
        // twice the 8 latch groups a μbank(8,1) bank holds.
        let sect = tsi(8, 1).with_variant(DeviceVariant::Sectored {
            sectors: 16,
            sectors_per_act: 2,
        });
        let ub = tsi(8, 1);
        assert!((sect.act_pre_array_nj() - ub.act_pre_array_nj()).abs() < 1e-12);
        assert!((sect.act_latch_nj() - 2.0 * ub.act_latch_nj()).abs() < 1e-12);
        assert!(sect.act_pre_nj() > ub.act_pre_nj());
    }

    #[test]
    fn salp_and_conventional_share_the_geometric_formula() {
        use microbank_core::variant::{DeviceVariant, SalpMode};
        let conv = tsi(1, 1).with_variant(DeviceVariant::Conventional);
        assert!((conv.act_pre_nj() - tsi(1, 1).act_pre_nj()).abs() < 1e-12);
        let salp = tsi(1, 8).with_variant(DeviceVariant::Salp {
            subarrays: 8,
            mode: SalpMode::Masa,
        });
        assert!((salp.act_pre_nj() - tsi(1, 8).act_pre_nj()).abs() < 1e-12);
    }
}
