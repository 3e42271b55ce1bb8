//! Whole-memory-system configuration and the three processor–memory
//! interface presets compared in the paper (Fig. 14): DDR3 over PCB,
//! DDR3-type stacked dies over TSI, and LPDDR-type stacked dies over TSI.

use crate::geometry::{DeviceGeometry, UbankConfig};
use crate::timing::{TimingParams, Timings};
use crate::validate::{Checker, ConfigError};
use crate::variant::DeviceVariant;
use crate::CACHE_LINE_BITS;

/// Processor–memory interface technology (paper §VI-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Interface {
    /// Module-based DDR3 connected through PCBs: the conventional baseline.
    /// 8 memory controllers (to keep ~1,600 I/O pins realistic), 12.8 GB/s
    /// per channel, 2 ranks per channel.
    Ddr3Pcb,
    /// TSV-stacked DDR3-type dies behind a silicon interposer: 16 channels
    /// of 16 GB/s; the DDR3 PHY (ODT/DLL) is kept, so energy improves only
    /// modestly.
    Ddr3Tsi,
    /// TSV-stacked LPDDR-type dies behind a silicon interposer: the paper's
    /// proposed interface; 16 channels of 16 GB/s and 4 pJ/b I/O.
    LpddrTsi,
}

impl Interface {
    pub fn name(&self) -> &'static str {
        match self {
            Interface::Ddr3Pcb => "DDR3-PCB",
            Interface::Ddr3Tsi => "DDR3-TSI",
            Interface::LpddrTsi => "LPDDR-TSI",
        }
    }

    pub fn timing_params(&self) -> TimingParams {
        match self {
            Interface::Ddr3Pcb => TimingParams::ddr3_pcb(),
            Interface::Ddr3Tsi => TimingParams::ddr3_tsi(),
            Interface::LpddrTsi => TimingParams::lpddr_tsi(),
        }
    }

    /// Default number of memory controllers / channels (§VI-A, §VI-D).
    pub fn default_channels(&self) -> usize {
        match self {
            Interface::Ddr3Pcb => 8,
            _ => 16,
        }
    }

    /// Default ranks per channel. The PCB module hosts 2 ranks; over TSI
    /// each (half-)die serves a channel as one rank (§III-B).
    pub fn default_ranks(&self) -> usize {
        match self {
            Interface::Ddr3Pcb => 2,
            _ => 1,
        }
    }
}

/// Full memory-system configuration handed to the channel model, the
/// address mapper, the controller, and the energy model.
#[derive(Debug, Clone, PartialEq)]
pub struct MemConfig {
    pub interface: Interface,
    /// Number of memory controllers, one channel each.
    pub channels: usize,
    pub ranks_per_channel: usize,
    /// Banks per rank visible to one channel (8: half of a 16-bank die).
    pub banks_per_rank: usize,
    pub ubank: UbankConfig,
    /// Device-variant seam (DESIGN §5h): which fine-grained-DRAM design
    /// the channel models. `Microbank` (the default) is the repo's native
    /// model and imposes no structural rules beyond the μbank FSMs, so
    /// every pre-seam configuration behaves bit-identically. Set via
    /// [`MemConfig::with_variant`], which also derives the consistent
    /// `ubank` geometry.
    pub variant: DeviceVariant,
    pub geometry: DeviceGeometry,
    pub timing: TimingParams,
    /// Interleaving base bit `iB` (paper Fig. 11). Bit 6 interleaves at
    /// cache-line granularity; `max_interleave_base()` interleaves at DRAM
    /// row granularity. Values outside the legal range are clamped by the
    /// address mapper.
    pub interleave_base: u32,
    /// Per-controller request-queue capacity (32, §VI-A).
    pub queue_size: usize,
    /// Enable tREFI/tRFC refresh modeling.
    pub refresh_enabled: bool,
    /// Power-down idle threshold in CPU cycles: a rank with no open rows
    /// and no queued work for this long enters precharge power-down
    /// (CKE low), cutting its static power; waking costs tXP. `None`
    /// disables power-down (the evaluation default).
    pub powerdown_idle: Option<u64>,
    /// Permutation-based (XOR) bank hashing: the bank/μbank index is XORed
    /// with low row bits, spreading row-stride access patterns across
    /// banks (Zhang et al., MICRO'00). Off in the paper's evaluation; an
    /// alternative lever to μbank for conflict reduction, kept ablatable.
    pub bank_xor_hash: bool,
}

impl MemConfig {
    /// Preset for an interface with the paper's §VI-A defaults and row
    /// (page) granularity interleaving, the paper's preferred scheme.
    pub fn for_interface(interface: Interface) -> Self {
        let geometry = DeviceGeometry::reference();
        let mut cfg = MemConfig {
            interface,
            channels: interface.default_channels(),
            ranks_per_channel: interface.default_ranks(),
            banks_per_rank: geometry.banks_per_die / geometry.channels_per_die,
            ubank: UbankConfig::BASELINE,
            variant: DeviceVariant::Microbank,
            geometry,
            timing: interface.timing_params(),
            interleave_base: 0, // patched below to the row-granularity max
            queue_size: 32,
            refresh_enabled: true,
            powerdown_idle: None,
            bank_xor_hash: false,
        };
        cfg.interleave_base = cfg.max_interleave_base();
        cfg
    }

    /// The paper's baseline system: DDR3 modules over PCB.
    pub fn ddr3_pcb() -> Self {
        Self::for_interface(Interface::Ddr3Pcb)
    }

    /// DDR3-type stacked dies over a silicon interposer.
    pub fn ddr3_tsi() -> Self {
        Self::for_interface(Interface::Ddr3Tsi)
    }

    /// The paper's proposed interface: LPDDR-type stacked dies over TSI.
    pub fn lpddr_tsi() -> Self {
        Self::for_interface(Interface::LpddrTsi)
    }

    /// Builder: set the μbank partitioning `(nW, nB)` and keep the
    /// interleaving at row granularity for the new row size.
    pub fn with_ubanks(mut self, n_w: usize, n_b: usize) -> Self {
        let was_max = self.interleave_base == self.max_interleave_base();
        self.ubank = UbankConfig::new(n_w, n_b);
        if was_max {
            self.interleave_base = self.max_interleave_base();
        } else {
            self.interleave_base = self.interleave_base.min(self.max_interleave_base());
        }
        self
    }

    /// Builder: select a device variant and derive the μbank geometry it
    /// imposes ([`DeviceVariant::effective_ubank`]), keeping row-granular
    /// interleaving consistent with the new row size. For
    /// `DeviceVariant::Microbank` the configured `(nW, nB)` is kept, so
    /// `with_variant(Microbank)` after `with_ubanks(..)` is a no-op.
    pub fn with_variant(mut self, v: DeviceVariant) -> Self {
        self.variant = v;
        let u = v.effective_ubank(self.ubank);
        self.with_ubanks(u.n_w, u.n_b)
    }

    /// Builder: set the interleaving base bit `iB`.
    pub fn with_interleave_base(mut self, ib: u32) -> Self {
        self.interleave_base = ib;
        self
    }

    /// Builder: set the number of channels (the paper populates a single
    /// controller to stress bandwidth for single-threaded SPEC runs).
    pub fn with_channels(mut self, channels: usize) -> Self {
        assert!(channels.is_power_of_two());
        self.channels = channels;
        self
    }

    /// Builder: toggle refresh.
    pub fn with_refresh(mut self, on: bool) -> Self {
        self.refresh_enabled = on;
        self
    }

    /// Builder: enable precharge power-down after `idle_cycles` of rank
    /// inactivity.
    pub fn with_powerdown(mut self, idle_cycles: u64) -> Self {
        self.powerdown_idle = Some(idle_cycles);
        self
    }

    /// Builder: enable permutation-based (XOR) bank hashing.
    pub fn with_bank_xor_hash(mut self, on: bool) -> Self {
        self.bank_xor_hash = on;
        self
    }

    /// Builder: per-controller queue capacity.
    pub fn with_queue_size(mut self, q: usize) -> Self {
        assert!(q > 0);
        self.queue_size = q;
        self
    }

    /// Check every structural invariant the device model, address mapper,
    /// and controller assume, reporting *all* violations at once.
    ///
    /// The builders (`with_ubanks`, `with_channels`, …) assert the same
    /// constraints eagerly; this method exists for configurations assembled
    /// field-by-field (sweep generators, fuzzers, deserialized configs),
    /// where a structured diagnostic beats an index panic three crates down.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let mut c = Checker::new();
        let pow2 = |c: &mut Checker, name: &str, v: usize| -> bool {
            c.check(v.is_power_of_two(), || {
                format!("{name} = {v}: must be a power of two >= 1 (address bits are sliced)")
            })
        };
        pow2(&mut c, "channels", self.channels);
        pow2(&mut c, "ranks_per_channel", self.ranks_per_channel);
        pow2(&mut c, "banks_per_rank", self.banks_per_rank);
        let ub_ok = c.check(
            self.ubank.n_w.is_power_of_two() && self.ubank.n_w <= 16,
            || {
                format!(
                    "ubank.n_w = {}: must be a power of two in 1..=16",
                    self.ubank.n_w
                )
            },
        ) & c.check(
            self.ubank.n_b.is_power_of_two() && self.ubank.n_b <= 16,
            || {
                format!(
                    "ubank.n_b = {}: must be a power of two in 1..=16",
                    self.ubank.n_b
                )
            },
        );
        c.check(self.queue_size >= 1, || {
            format!(
                "queue_size = {}: the controller needs at least one queue slot",
                self.queue_size
            )
        });

        let g = &self.geometry;
        let geom_ok = c.check(g.banks_per_die >= 1 && g.channels_per_die >= 1, || {
            format!(
                "geometry: banks_per_die = {}, channels_per_die = {}: both must be >= 1",
                g.banks_per_die, g.channels_per_die
            )
        }) & c.check(
            g.row_bytes >= crate::CACHE_LINE_BYTES as usize && g.row_bytes.is_power_of_two(),
            || {
                format!(
                    "geometry.row_bytes = {}: must be a power of two >= the 64 B cache line",
                    g.row_bytes
                )
            },
        ) & c.check(g.die_bits > 0, || {
            format!("geometry.die_bits = {}: empty die", g.die_bits)
        });

        if ub_ok && geom_ok {
            // Derived quantities are only computable once the raw fields are
            // sane (ubank_cols divides by n_w, rows_per_bank by row_bytes).
            c.check(
                self.ubank_cols() >= 1 && self.ubank_cols().is_power_of_two(),
                || {
                    format!(
                        "ubank columns = {} (row of {} B split {} ways): must stay a power of \
                     two >= 1 cache line",
                        self.ubank_cols(),
                        g.row_bytes,
                        self.ubank.n_w
                    )
                },
            );
            c.check(
                self.ubank_rows() >= 1 && self.ubank_rows().is_power_of_two(),
                || {
                    format!(
                        "ubank rows = {} ({} rows split {} ways): must stay a power of two >= 1",
                        self.ubank_rows(),
                        g.rows_per_bank(),
                        self.ubank.n_b
                    )
                },
            );
            c.check(self.interleave_base <= self.max_interleave_base(), || {
                format!(
                    "interleave_base = {}: exceeds the row-granularity ceiling {} for this \
                     partition (the address mapper would clamp it)",
                    self.interleave_base,
                    self.max_interleave_base()
                )
            });
        }

        if ub_ok {
            self.variant.validate_into(&mut c, self.ubank);
        }
        self.timing.validate_into(&mut c);
        c.finish("MemConfig")
    }

    /// Integer CPU-cycle timings for this configuration.
    pub fn timings(&self) -> Timings {
        self.timing.to_cycles()
    }

    /// Cache-line columns in one μbank row: 128 / nW.
    pub fn ubank_cols(&self) -> usize {
        self.geometry.ubank_cols(self.ubank)
    }

    /// Rows per μbank: 8192 / nB.
    pub fn ubank_rows(&self) -> usize {
        self.geometry.ubank_rows(self.ubank)
    }

    /// μbanks addressable per channel: ranks × banks × nW × nB.
    pub fn ubanks_per_channel(&self) -> usize {
        self.ranks_per_channel * self.banks_per_rank * self.ubank.ubanks_per_bank()
    }

    /// Largest legal interleaving base bit: 6 + log2(columns per μbank row).
    /// At this value a whole μbank row is contiguous in the address space
    /// (row/page-granularity interleaving). This reproduces the paper's
    /// per-configuration iB ceilings in Fig. 12: 13 for (1,1), 12 for (2,8),
    /// 11 for (4,4), 10 for (8,2).
    pub fn max_interleave_base(&self) -> u32 {
        CACHE_LINE_BITS + (self.ubank_cols() as u32).trailing_zeros()
    }

    /// Total addressable bytes across all channels.
    pub fn capacity_bytes(&self) -> u64 {
        let per_ubank = self.ubank_rows() as u64 * self.geometry.ubank_row_bytes(self.ubank) as u64;
        per_ubank * self.ubanks_per_channel() as u64 * self.channels as u64
    }

    /// Peak channel bandwidth in GB/s (64 B per burst slot).
    pub fn channel_bandwidth_gbps(&self) -> f64 {
        crate::CACHE_LINE_BYTES as f64 / self.timing.t_burst_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_section_vi() {
        let pcb = MemConfig::ddr3_pcb();
        assert_eq!(pcb.channels, 8);
        assert_eq!(pcb.ranks_per_channel, 2);
        assert!((pcb.channel_bandwidth_gbps() - 12.8).abs() < 1e-9);

        let tsi = MemConfig::lpddr_tsi();
        assert_eq!(tsi.channels, 16);
        assert_eq!(tsi.banks_per_rank, 8);
        assert!((tsi.channel_bandwidth_gbps() - 16.0).abs() < 1e-9);
        assert_eq!(tsi.queue_size, 32);
    }

    #[test]
    fn interleave_ceiling_matches_fig12() {
        // Fig. 12 sweeps iB up to 13/(1,1), 12/(2,8), 11/(4,4), 10/(8,2).
        let cases = [(1, 1, 13), (2, 8, 12), (4, 4, 11), (8, 2, 10)];
        for (nw, nb, ib) in cases {
            let cfg = MemConfig::lpddr_tsi().with_ubanks(nw, nb);
            assert_eq!(cfg.max_interleave_base(), ib, "({nw},{nb})");
        }
    }

    #[test]
    fn ubank_builder_scales_parallelism() {
        let cfg = MemConfig::lpddr_tsi().with_ubanks(4, 4);
        assert_eq!(cfg.ubanks_per_channel(), 8 * 16);
        assert_eq!(cfg.ubank_cols(), 32);
    }

    #[test]
    fn capacity_independent_of_partitioning() {
        let base = MemConfig::lpddr_tsi().capacity_bytes();
        for &(nw, nb) in &[(2usize, 8usize), (16, 16), (8, 2)] {
            assert_eq!(
                MemConfig::lpddr_tsi().with_ubanks(nw, nb).capacity_bytes(),
                base
            );
        }
    }

    #[test]
    fn single_channel_builder() {
        let cfg = MemConfig::lpddr_tsi().with_channels(1);
        assert_eq!(cfg.channels, 1);
    }
}
