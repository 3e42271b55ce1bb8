//! Physical DRAM geometry: mats, subarrays, banks, and μbank partitioning.
//!
//! The paper's reference die (§IV-B): 8 Gb, 80 mm², 16 banks, 2 channels,
//! 512 Mb banks laid out as a 64 × 32 array of 512×512-cell mats, 8 KB rows,
//! 16 GB/s channels. A μbank configuration `(nW, nB)` splits every bank into
//! `nW` partitions along the wordline direction (shrinking the activated row
//! to `8 KB / nW`) and `nB` partitions along the bitline / global-dataline
//! direction (multiplying the number of simultaneously open rows).

/// Number of cells along one side of a mat (512×512 cells, §II).
pub const MAT_CELLS: usize = 512;

/// μbank partitioning degree. `(1, 1)` is the conventional bank and the
/// baseline in every experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UbankConfig {
    /// Number of partitions in the wordline direction (`nW`): each activate
    /// opens `1/nW` of the original row.
    pub n_w: usize,
    /// Number of partitions in the bitline direction (`nB`).
    pub n_b: usize,
}

impl UbankConfig {
    /// A conventional, unpartitioned bank.
    pub const BASELINE: UbankConfig = UbankConfig { n_w: 1, n_b: 1 };

    pub fn new(n_w: usize, n_b: usize) -> Self {
        assert!(n_w.is_power_of_two() && n_w <= 16, "nW must be 1..=16 pow2");
        assert!(n_b.is_power_of_two() && n_b <= 16, "nB must be 1..=16 pow2");
        UbankConfig { n_w, n_b }
    }

    /// Total μbanks per bank (`nW × nB`).
    pub fn ubanks_per_bank(&self) -> usize {
        self.n_w * self.n_b
    }

    pub fn log2_nw(&self) -> u32 {
        self.n_w.trailing_zeros()
    }

    pub fn log2_nb(&self) -> u32 {
        self.n_b.trailing_zeros()
    }
}

impl Default for UbankConfig {
    fn default() -> Self {
        Self::BASELINE
    }
}

/// Reference DRAM die geometry (paper §III-B and §IV-B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceGeometry {
    /// Die capacity in bits (8 Gb).
    pub die_bits: u64,
    /// Baseline die area in mm² (80 mm²).
    pub die_area_mm2: f64,
    /// Banks per die (16).
    pub banks_per_die: usize,
    /// Independent channels per die (2), so 8 banks serve each channel.
    pub channels_per_die: usize,
    /// Mats per bank in the wordline direction (64).
    pub mats_x: usize,
    /// Mats per bank in the bitline direction (32).
    pub mats_y: usize,
    /// DRAM row (page) size in bytes for an unpartitioned bank (8 KB).
    pub row_bytes: usize,
}

impl DeviceGeometry {
    /// The paper's reference 8 Gb / 80 mm² die.
    pub fn reference() -> Self {
        DeviceGeometry {
            die_bits: 8 << 30,
            die_area_mm2: 80.0,
            banks_per_die: 16,
            channels_per_die: 2,
            mats_x: 64,
            mats_y: 32,
            row_bytes: 8 * 1024,
        }
    }

    /// Bits per bank (512 Mb for the reference die).
    pub fn bank_bits(&self) -> u64 {
        self.die_bits / self.banks_per_die as u64
    }

    /// Mats per bank (2048 for the reference die).
    pub fn mats_per_bank(&self) -> usize {
        self.mats_x * self.mats_y
    }

    /// Rows (8 KB pages) per bank: 512 Mb / 64 Kib = 8192.
    pub fn rows_per_bank(&self) -> usize {
        (self.bank_bits() / (self.row_bytes as u64 * 8)) as usize
    }

    /// 64 B cache-line columns per row (128 for an 8 KB row).
    pub fn cols_per_row(&self) -> usize {
        self.row_bytes / crate::CACHE_LINE_BYTES as usize
    }

    /// Mats activated per ACT command for a given μbank configuration.
    /// An 8 KB row spans 128 mats (2 mat rows, §IV-B); `nW` divides that.
    pub fn mats_per_activation(&self, u: UbankConfig) -> usize {
        let full = (self.row_bytes * 8).div_ceil(MAT_CELLS); // 128 mats
        (full / u.n_w).max(1)
    }

    /// Row size (bytes) seen by one μbank: 8 KB / nW.
    pub fn ubank_row_bytes(&self, u: UbankConfig) -> usize {
        self.row_bytes / u.n_w
    }

    /// Cache-line columns per μbank row: 128 / nW.
    pub fn ubank_cols(&self, u: UbankConfig) -> usize {
        self.cols_per_row() / u.n_w
    }

    /// Rows per μbank: 8192 / nB.
    pub fn ubank_rows(&self, u: UbankConfig) -> usize {
        self.rows_per_bank() / u.n_b
    }
}

impl Default for DeviceGeometry {
    fn default() -> Self {
        Self::reference()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_die_matches_paper() {
        let g = DeviceGeometry::reference();
        assert_eq!(g.bank_bits(), 512 << 20); // 512 Mb banks
        assert_eq!(g.mats_per_bank(), 2048); // 64 × 32 array
        assert_eq!(g.rows_per_bank(), 8192);
        assert_eq!(g.cols_per_row(), 128);
    }

    #[test]
    fn full_row_spans_128_mats() {
        let g = DeviceGeometry::reference();
        assert_eq!(g.mats_per_activation(UbankConfig::BASELINE), 128);
        // With nW = 16 only 8 mats light up per ACT.
        assert_eq!(g.mats_per_activation(UbankConfig::new(16, 1)), 8);
    }

    #[test]
    fn partitioning_divides_rows_and_cols() {
        let g = DeviceGeometry::reference();
        let u = UbankConfig::new(4, 8);
        assert_eq!(g.ubank_row_bytes(u), 2048); // 8 KB / 4
        assert_eq!(g.ubank_cols(u), 32); // 128 / 4
        assert_eq!(g.ubank_rows(u), 1024); // 8192 / 8
        assert_eq!(u.ubanks_per_bank(), 32);
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_rejected() {
        UbankConfig::new(3, 1);
    }

    #[test]
    fn capacity_is_preserved_by_partitioning() {
        let g = DeviceGeometry::reference();
        for &nw in &[1usize, 2, 4, 8, 16] {
            for &nb in &[1usize, 2, 4, 8, 16] {
                let u = UbankConfig::new(nw, nb);
                let per_ubank = g.ubank_rows(u) as u64 * g.ubank_row_bytes(u) as u64;
                let total = per_ubank * u.ubanks_per_bank() as u64;
                assert_eq!(total * 8, g.bank_bits(), "({nw},{nb})");
            }
        }
    }
}
