//! # microbank-core
//!
//! Cycle-level DRAM device model with **μbank** partitioning, reproducing the
//! memory-device substrate of *"Microbank: Architecting Through-Silicon
//! Interposer-Based Main Memory Systems"* (SC 2014).
//!
//! The crate models a multi-channel main-memory system in which every DRAM
//! bank can be partitioned `nW` ways along the wordline direction and `nB`
//! ways along the bitline direction, producing `nW × nB` independently
//! operable μbanks per bank (paper §IV). Each μbank owns a row buffer and a
//! timing state machine; all μbanks of a channel share the command and data
//! buses, and activation-rate constraints (tRRD/tFAW) apply per rank.
//!
//! ## Module map
//!
//! * [`timing`] — nanosecond timing parameters (paper Table I) and their
//!   CPU-cycle derivations for the three processor–memory interfaces.
//! * [`geometry`] — mats, subarrays, banks and the μbank partitioning math.
//! * [`organization`] — the literature's bank organizations (SALP,
//!   Half-DRAM) expressed as μbank geometries (paper §VII).
//! * [`config`] — whole-memory-system configuration presets.
//! * [`validate`] — the configuration validation ladder.
//! * [`address`] — physical-address ↔ device-coordinate mapping with the
//!   configurable interleaving base bit `iB` (paper Fig. 11), and the flat
//!   μbank index ([`address::Location::ubank_flat`]) every channel API
//!   takes.
//! * [`bank`] — per-μbank timing FSM (ACT/RD/WR/PRE legality and latching).
//! * [`channel`] — one memory channel: shared buses, ranks, tFAW windows,
//!   refresh bookkeeping, and the `can_*`/command pairs a controller
//!   issues through, keyed by flat μbank index.
//! * [`variant`] — the device-variant seam: μbank vs conventional vs SALP
//!   vs Sectored DRAM issue rules, energy granularity, and geometry.
//! * [`request`] — the memory-request type exchanged between the CPU model,
//!   the controller, and the device model.
//! * [`stats`] — event counters used by the energy model.
//! * [`hist`] — the log-bucketed latency histogram.
//! * [`fxhash`] — the deterministic hasher shared by the hot-path maps.
//!
//! ## Quick example
//!
//! ```
//! use microbank_core::prelude::*;
//!
//! // LPDDR-over-TSI channel with (nW, nB) = (4, 4) μbanks.
//! let cfg = MemConfig::lpddr_tsi().with_ubanks(4, 4);
//! let mut ch = Channel::new(&cfg);
//! let map = AddressMap::new(&cfg);
//! let loc = map.decode(0x4000);
//! let flat = loc.ubank_flat(&cfg);
//!
//! // Activate a row, then read a column, respecting DRAM timing.
//! let t0 = 0;
//! assert!(ch.can_activate_row_flat(flat, loc.row, t0));
//! ch.activate_flat(flat, loc.row, t0);
//! let t1 = t0 + cfg.timings().t_rcd;
//! assert!(ch.can_column_flat(flat, loc.row, false, t1));
//! let done = ch.read_flat(flat, t1);
//! assert!(done > t1);
//! ```

pub mod address;
pub mod bank;
pub mod channel;
pub mod config;
pub mod fxhash;
pub mod geometry;
pub mod hist;
pub mod organization;
pub mod request;
pub mod stats;
pub mod timing;
pub mod validate;
pub mod variant;

/// One simulated CPU clock tick. The whole simulator runs in a single clock
/// domain: CPU cycles at 2 GHz (0.5 ns per cycle), per the paper's §VI-A
/// system configuration. DRAM timing values are converted into this domain
/// by [`timing::Timings`].
pub type Cycle = u64;

/// CPU core frequency, cycles per nanosecond (2 GHz).
pub const CYCLES_PER_NS: f64 = 2.0;

/// Cache-line size in bytes; the paper fixes main-memory transfer granularity
/// to one 64 B line (§IV-A).
pub const CACHE_LINE_BYTES: u64 = 64;

/// log2 of [`CACHE_LINE_BYTES`].
pub const CACHE_LINE_BITS: u32 = 6;

pub mod prelude {
    //! Convenient glob import for downstream crates.
    pub use crate::address::{AddressMap, Location};
    pub use crate::bank::MicrobankState;
    pub use crate::channel::Channel;
    pub use crate::config::{Interface, MemConfig};
    pub use crate::geometry::{DeviceGeometry, UbankConfig};
    pub use crate::hist::Histogram;
    pub use crate::organization::Organization;
    pub use crate::request::{MemRequest, ReqKind, TenantId};
    pub use crate::stats::DramStats;
    pub use crate::timing::{TimingParams, Timings};
    pub use crate::validate::ConfigError;
    pub use crate::variant::{DeviceVariant, SalpMode};
    pub use crate::{Cycle, CACHE_LINE_BITS, CACHE_LINE_BYTES, CYCLES_PER_NS};
}

#[cfg(test)]
mod tests {
    #[test]
    fn constants_are_consistent() {
        assert_eq!(1u64 << super::CACHE_LINE_BITS, super::CACHE_LINE_BYTES);
    }
}
