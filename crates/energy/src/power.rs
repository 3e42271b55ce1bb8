//! Power integration: turn DRAM event counters into the energy and power
//! breakdowns reported in Fig. 10 and Fig. 14 (ACT/PRE, RD/WR, I/O, and
//! DRAM static components).

use crate::energy::EnergyModel;
use microbank_core::stats::DramStats;
use microbank_core::Cycle;

/// Seconds per simulated CPU cycle (2 GHz clock).
const SECONDS_PER_CYCLE: f64 = 0.5e-9;

/// Memory-system energy broken into the paper's reporting buckets (all nJ).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemoryEnergy {
    pub act_pre_nj: f64,
    pub rdwr_nj: f64,
    pub io_nj: f64,
    pub static_nj: f64,
    pub refresh_nj: f64,
}

impl MemoryEnergy {
    pub fn total_nj(&self) -> f64 {
        self.act_pre_nj + self.rdwr_nj + self.io_nj + self.static_nj + self.refresh_nj
    }

    /// Fraction of memory energy spent on activate/precharge — the paper's
    /// Fig. 14 headline is that this reaches 76.2% under LPDDR-TSI.
    pub fn act_pre_fraction(&self) -> f64 {
        if self.total_nj() == 0.0 {
            0.0
        } else {
            self.act_pre_nj / self.total_nj()
        }
    }

    /// Convert to average power in watts over `cycles` CPU cycles.
    pub fn to_watts(&self, cycles: Cycle) -> MemoryPowerW {
        let t = cycles as f64 * SECONDS_PER_CYCLE;
        let w = |nj: f64| if t == 0.0 { 0.0 } else { nj * 1e-9 / t };
        MemoryPowerW {
            act_pre_w: w(self.act_pre_nj),
            rdwr_w: w(self.rdwr_nj),
            io_w: w(self.io_nj),
            static_w: w(self.static_nj),
            refresh_w: w(self.refresh_nj),
        }
    }
}

/// Average memory power in watts, same buckets as [`MemoryEnergy`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemoryPowerW {
    pub act_pre_w: f64,
    pub rdwr_w: f64,
    pub io_w: f64,
    pub static_w: f64,
    pub refresh_w: f64,
}

impl MemoryPowerW {
    pub fn total_w(&self) -> f64 {
        self.act_pre_w + self.rdwr_w + self.io_w + self.static_w + self.refresh_w
    }
}

/// Integrates DRAM event counts into [`MemoryEnergy`].
#[derive(Debug, Clone, Copy)]
pub struct PowerIntegrator {
    pub model: EnergyModel,
    /// Number of channels contributing static power.
    pub channels: usize,
    /// Ranks per channel (power-down accounting granularity).
    pub ranks_per_channel: usize,
}

impl PowerIntegrator {
    pub fn new(model: EnergyModel, channels: usize) -> Self {
        PowerIntegrator {
            model,
            channels,
            ranks_per_channel: 1,
        }
    }

    /// Builder: set the rank count used to apportion power-down savings.
    pub fn with_ranks(mut self, ranks_per_channel: usize) -> Self {
        self.ranks_per_channel = ranks_per_channel.max(1);
        self
    }

    /// Energy consumed by `stats` worth of events over `cycles` CPU cycles.
    pub fn integrate(&self, stats: &DramStats, cycles: Cycle) -> MemoryEnergy {
        let m = &self.model;
        let seconds = cycles as f64 * SECONDS_PER_CYCLE;
        let static_mw = m.params.static_mw_per_channel * self.channels as f64;
        // Power-down savings: the fraction of rank-time spent CKE-low
        // draws only `powerdown_static_ratio` of the static power.
        let total_rank_cycles = (cycles * (self.channels * self.ranks_per_channel) as u64) as f64;
        let pd_frac = if total_rank_cycles == 0.0 {
            0.0
        } else {
            (stats.powerdown_rank_cycles as f64 / total_rank_cycles).min(1.0)
        };
        let static_scale = 1.0 - pd_frac * (1.0 - m.params.powerdown_static_ratio);
        MemoryEnergy {
            act_pre_nj: stats.activates as f64 * m.act_pre_nj(),
            rdwr_nj: (stats.reads + stats.writes) as f64 * m.rdwr_nj(),
            io_nj: (stats.reads + stats.writes) as f64 * m.io_nj(),
            static_nj: static_mw * 1e-3 * seconds * 1e9 * static_scale,
            refresh_nj: stats.refreshes as f64 * m.refresh_nj(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::EnergyParams;
    use microbank_core::geometry::UbankConfig;

    fn integ(nw: usize, nb: usize) -> PowerIntegrator {
        PowerIntegrator::new(
            EnergyModel::new(EnergyParams::lpddr_tsi(), UbankConfig::new(nw, nb)),
            16,
        )
    }

    fn stats(acts: u64, reads: u64, writes: u64) -> DramStats {
        DramStats {
            activates: acts,
            reads,
            writes,
            ..Default::default()
        }
    }

    #[test]
    fn energy_is_additive_in_events() {
        let p = integ(1, 1);
        let one = p.integrate(&stats(1, 1, 0), 0);
        let ten = p.integrate(&stats(10, 10, 0), 0);
        assert!((ten.total_nj() - 10.0 * one.total_nj()).abs() < 1e-9);
    }

    #[test]
    fn nw_cuts_act_pre_bucket_only() {
        let base = integ(1, 1).integrate(&stats(100, 100, 0), 2_000_000);
        let part = integ(8, 1).integrate(&stats(100, 100, 0), 2_000_000);
        assert!(part.act_pre_nj < base.act_pre_nj / 7.0);
        assert_eq!(part.rdwr_nj, base.rdwr_nj);
        assert_eq!(part.io_nj, base.io_nj);
        assert_eq!(part.static_nj, base.static_nj);
    }

    #[test]
    fn static_energy_scales_with_time() {
        let p = integ(1, 1);
        let a = p.integrate(&stats(0, 0, 0), 1_000_000);
        let b = p.integrate(&stats(0, 0, 0), 2_000_000);
        assert!((b.static_nj - 2.0 * a.static_nj).abs() < 1e-6);
        assert!(a.static_nj > 0.0);
    }

    #[test]
    fn watts_conversion_roundtrips() {
        let p = integ(1, 1);
        let e = p.integrate(&stats(1000, 5000, 1000), 10_000_000);
        let w = e.to_watts(10_000_000);
        let seconds = 10_000_000f64 * 0.5e-9;
        assert!((w.total_w() * seconds - e.total_nj() * 1e-9).abs() < 1e-12);
    }

    #[test]
    fn act_pre_fraction_is_high_for_random_traffic_on_tsi() {
        // β = 1 traffic on LPDDR-TSI: ACT/PRE should dominate (paper: the
        // motivation for μbank, §III-B / Fig. 14).
        let p = integ(1, 1);
        // 1M accesses over 10M cycles (5 ms): a busy memory system.
        let e = p.integrate(&stats(1_000_000, 1_000_000, 0), 10_000_000);
        assert!(e.act_pre_fraction() > 0.6, "{}", e.act_pre_fraction());
    }

    #[test]
    fn zero_time_power_is_zero() {
        let e = MemoryEnergy {
            act_pre_nj: 5.0,
            ..Default::default()
        };
        assert_eq!(e.to_watts(0).total_w(), 0.0);
    }
}
