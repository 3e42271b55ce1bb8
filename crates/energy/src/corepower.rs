//! Processor-side energy, at the abstraction level the paper uses.
//!
//! §III-B: "a dual-issue out-of-order core, modeled by McPAT, consumes
//! 200 pJ/op in 22 nm". The paper's EDP figures combine this per-operation
//! core energy with cache/uncore static power; we expose the same terms.

use microbank_core::Cycle;

/// Seconds per CPU cycle at 2 GHz.
const SECONDS_PER_CYCLE: f64 = 0.5e-9;

/// Processor (cores + caches + uncore) power model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorePowerModel {
    /// Dynamic energy per committed instruction, pJ (200 pJ/op, §III-B).
    pub epi_pj: f64,
    /// Static power per core, mW (leakage + clock tree of a small
    /// dual-issue OoO core plus its share of L1).
    pub static_mw_per_core: f64,
    /// Static power per L2 slice / cluster uncore, mW.
    pub static_mw_per_cluster: f64,
    /// Cores per cluster (4, §VI-A).
    pub cores_per_cluster: usize,
}

impl Default for CorePowerModel {
    fn default() -> Self {
        CorePowerModel {
            epi_pj: 200.0,
            static_mw_per_core: 50.0,
            static_mw_per_cluster: 100.0,
            cores_per_cluster: 4,
        }
    }
}

impl CorePowerModel {
    pub fn new() -> Self {
        Self::default()
    }

    /// Total processor energy in nJ for `instructions` committed over
    /// `cycles` on `cores` active cores.
    pub fn energy_nj(&self, instructions: u64, cycles: Cycle, cores: usize) -> f64 {
        let seconds = cycles as f64 * SECONDS_PER_CYCLE;
        let clusters = cores.div_ceil(self.cores_per_cluster);
        let static_mw =
            self.static_mw_per_core * cores as f64 + self.static_mw_per_cluster * clusters as f64;
        instructions as f64 * self.epi_pj / 1000.0 + static_mw * 1e-3 * seconds * 1e9
    }

    /// Average processor power in watts.
    pub fn power_w(&self, instructions: u64, cycles: Cycle, cores: usize) -> f64 {
        let seconds = cycles as f64 * SECONDS_PER_CYCLE;
        if seconds == 0.0 {
            0.0
        } else {
            self.energy_nj(instructions, cycles, cores) * 1e-9 / seconds
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_epi_default() {
        assert_eq!(CorePowerModel::default().epi_pj, 200.0);
    }

    #[test]
    fn dynamic_term_matches_paper_math() {
        // §III-B example: at 200 pJ/op, 1e9 ops = 0.2 J = 2e8 nJ dynamic.
        let m = CorePowerModel {
            static_mw_per_core: 0.0,
            static_mw_per_cluster: 0.0,
            ..Default::default()
        };
        let e = m.energy_nj(1_000_000_000, 0, 1);
        assert!((e - 2.0e8).abs() < 1.0);
    }

    #[test]
    fn power_at_full_throughput_is_sane() {
        // One core at IPC 1 (2 Gops/s): 0.4 W dynamic + 50 mW static.
        let m = CorePowerModel::default();
        let cycles = 2_000_000_000u64; // one second
        let w = m.power_w(2_000_000_000, cycles, 1);
        assert!(w > 0.4 && w < 0.6, "{w}");
    }

    #[test]
    fn static_scales_with_cores_and_clusters() {
        let m = CorePowerModel::default();
        let e4 = m.energy_nj(0, 2_000_000, 4);
        let e64 = m.energy_nj(0, 2_000_000, 64);
        assert!(e64 > 15.0 * e4 && e64 < 17.0 * e4);
    }
}
