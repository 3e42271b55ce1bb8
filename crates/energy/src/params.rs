//! DRAM energy parameters (paper Table I) for the three processor–memory
//! interfaces, plus background (static) power figures.
//!
//! Table I gives: 20 pJ/b I/O and 13 pJ/b core read/write for DDR3 over a
//! PCB; 4 pJ/b I/O and 4 pJ/b read/write for LPDDR over TSI; and
//! 30 nJ for an ACT+PRE pair on an 8 KB page. The intermediate DDR3-TSI
//! point (Fig. 14) keeps the DDR3 PHY — ODTs and DLLs — so its I/O energy
//! improves only modestly (§III-B); we model it at 10 pJ/b with the DDR3
//! 13 pJ/b core read/write energy.

use microbank_core::config::Interface;

/// Per-interface DRAM energy parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// Inter-die I/O energy, pJ per bit (Table I).
    pub io_pj_per_bit: f64,
    /// Read/write datapath energy without I/O, pJ per bit (Table I).
    pub rdwr_pj_per_bit: f64,
    /// ACT+PRE pair energy for a full 8 KB DRAM page, nJ (Table I). μbank
    /// partitioning divides this by `nW` ([`crate::energy::EnergyModel`]).
    pub act_pre_nj_8kb: f64,
    /// Extra energy per ACT per μbank latch set, pJ. "More latches dissipate
    /// power, but their impact on the overall energy is negligible" (§IV-B);
    /// kept non-zero so the Fig. 6(b) matrix shows the slight upturn.
    pub latch_pj_per_act_per_ubank: f64,
    /// Background (static) DRAM power per channel, mW: peripheral logic,
    /// and for DDR3 PHYs the always-on DLL/ODT circuitry.
    pub static_mw_per_channel: f64,
    /// Energy per all-bank refresh of one rank, nJ (scales with die size;
    /// a full-die refresh rewrites every row over tRFC).
    pub refresh_nj: f64,
    /// Fraction of static power still drawn in precharge power-down
    /// (CKE-low keeps DLL-off retention circuitry only).
    pub powerdown_static_ratio: f64,
}

impl EnergyParams {
    /// DDR3 module over PCB (baseline; Table I: 20 pJ/b I/O, 13 pJ/b RD/WR).
    pub fn ddr3_pcb() -> Self {
        EnergyParams {
            io_pj_per_bit: 20.0,
            rdwr_pj_per_bit: 13.0,
            act_pre_nj_8kb: 30.0,
            latch_pj_per_act_per_ubank: 0.4,
            static_mw_per_channel: 180.0,
            refresh_nj: 120.0,
            powerdown_static_ratio: 0.25,
        }
    }

    /// DDR3-type stacked dies over TSI: TSI removes the PCB channel but the
    /// DDR3 PHY (ODT + DLL) remains, so I/O energy improves only modestly.
    pub fn ddr3_tsi() -> Self {
        EnergyParams {
            io_pj_per_bit: 10.0,
            rdwr_pj_per_bit: 13.0,
            static_mw_per_channel: 140.0,
            ..Self::ddr3_pcb()
        }
    }

    /// LPDDR-type stacked dies over TSI (Table I: 4 pJ/b I/O, 4 pJ/b RD/WR);
    /// no ODT/DLL, so background power drops sharply.
    pub fn lpddr_tsi() -> Self {
        EnergyParams {
            io_pj_per_bit: 4.0,
            rdwr_pj_per_bit: 4.0,
            static_mw_per_channel: 40.0,
            ..Self::ddr3_pcb()
        }
    }

    pub fn for_interface(i: Interface) -> Self {
        match i {
            Interface::Ddr3Pcb => Self::ddr3_pcb(),
            Interface::Ddr3Tsi => Self::ddr3_tsi(),
            Interface::LpddrTsi => Self::lpddr_tsi(),
        }
    }

    /// Energy to move one 64 B line across the interface, pJ (datapath + I/O).
    pub fn line_transfer_pj(&self) -> f64 {
        512.0 * (self.io_pj_per_bit + self.rdwr_pj_per_bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_energy_values() {
        let pcb = EnergyParams::ddr3_pcb();
        assert_eq!(pcb.io_pj_per_bit, 20.0);
        assert_eq!(pcb.rdwr_pj_per_bit, 13.0);
        assert_eq!(pcb.act_pre_nj_8kb, 30.0);
        let tsi = EnergyParams::lpddr_tsi();
        assert_eq!(tsi.io_pj_per_bit, 4.0);
        assert_eq!(tsi.rdwr_pj_per_bit, 4.0);
    }

    #[test]
    fn act_pre_dominates_tsi_line_transfer() {
        // §IV-A: ACT/PRE energy is ~15× the energy to read a line *through
        // the inter-die channels* (the I/O term) over TSI.
        let tsi = EnergyParams::lpddr_tsi();
        let io_pj_per_line = 512.0 * tsi.io_pj_per_bit;
        let ratio = tsi.act_pre_nj_8kb * 1000.0 / io_pj_per_line;
        assert!((ratio - 14.6).abs() < 0.5, "ratio {ratio}");
    }

    #[test]
    fn interface_ordering_holds() {
        let pcb = EnergyParams::ddr3_pcb();
        let dtsi = EnergyParams::ddr3_tsi();
        let ltsi = EnergyParams::lpddr_tsi();
        assert!(pcb.io_pj_per_bit > dtsi.io_pj_per_bit);
        assert!(dtsi.io_pj_per_bit > ltsi.io_pj_per_bit);
        assert!(pcb.line_transfer_pj() > dtsi.line_transfer_pj());
        assert!(dtsi.line_transfer_pj() > ltsi.line_transfer_pj());
    }

    #[test]
    fn for_interface_dispatch() {
        use microbank_core::config::Interface::*;
        assert_eq!(
            EnergyParams::for_interface(Ddr3Pcb),
            EnergyParams::ddr3_pcb()
        );
        assert_eq!(
            EnergyParams::for_interface(LpddrTsi),
            EnergyParams::lpddr_tsi()
        );
    }
}
