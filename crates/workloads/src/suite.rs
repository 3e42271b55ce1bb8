//! The non-SPEC suites of the evaluation (§VI-A): the TPC-C/H database
//! workloads (PostgreSQL in the paper), the SPLASH-2 kernels RADIX and FFT,
//! and PARSEC's canneal — plus the [`Workload`] enumeration the experiment
//! harness selects runs by, and the source builder that partitions the
//! physical address space among threads.

use crate::mix::{mix_blend, mix_high};
use crate::profile::AppProfile;
use crate::spec::{self, SpecGroup};
use crate::synth::SynthSource;
use microbank_core::request::TenantId;

/// TPC-H: decision-support scans — long sequential runs, many concurrent
/// streams per worker, read-mostly. High spatial locality that bank
/// interference destroys at (1,1) and μbanks restore (Fig. 8c).
pub fn tpc_h() -> AppProfile {
    AppProfile {
        name: "TPC-H",
        mem_fraction: 0.32,
        hot_fraction: 0.86,
        hot_bytes: 8 * 1024,
        stream_run: 8.0,
        streams: 6,
        write_fraction: 0.08,
        footprint: 96 << 20,
        shared_fraction: 0.04,
        shared_write_fraction: 0.05,
        row_reuse: 0.6,
        reuse_window: 12,
    }
}

/// TPC-C: OLTP — random row lookups with short runs and a write-heavy mix.
pub fn tpc_c() -> AppProfile {
    AppProfile {
        name: "TPC-C",
        mem_fraction: 0.32,
        hot_fraction: 0.90,
        hot_bytes: 8 * 1024,
        stream_run: 3.0,
        streams: 4,
        write_fraction: 0.35,
        footprint: 96 << 20,
        shared_fraction: 0.06,
        shared_write_fraction: 0.30,
        row_reuse: 0.40,
        reuse_window: 8,
    }
}

/// SPLASH-2 RADIX sort: streaming reads with permutation (scattered)
/// writes; very high MAPKI and row-hit potential ("RADIX … has high MAPKI
/// values and row-hit rates for μbank-based systems", §VI-B).
pub fn radix() -> AppProfile {
    AppProfile {
        name: "RADIX",
        mem_fraction: 0.34,
        hot_fraction: 0.80,
        hot_bytes: 8 * 1024,
        stream_run: 40.0,
        streams: 4,
        write_fraction: 0.45,
        footprint: 64 << 20,
        shared_fraction: 0.10,
        shared_write_fraction: 0.40,
        row_reuse: 0.0,
        reuse_window: 8,
    }
}

/// SPLASH-2 FFT: strided transpose phases — medium runs, many streams.
pub fn fft() -> AppProfile {
    AppProfile {
        name: "FFT",
        mem_fraction: 0.32,
        hot_fraction: 0.86,
        hot_bytes: 8 * 1024,
        stream_run: 12.0,
        streams: 4,
        write_fraction: 0.35,
        footprint: 64 << 20,
        shared_fraction: 0.08,
        shared_write_fraction: 0.20,
        row_reuse: 0.10,
        reuse_window: 8,
    }
}

/// PARSEC canneal: cache-thrashing pointer chasing, but with higher
/// spatial locality than the spec-high average (§VI-C).
pub fn canneal() -> AppProfile {
    AppProfile {
        name: "canneal",
        mem_fraction: 0.32,
        hot_fraction: 0.88,
        hot_bytes: 8 * 1024,
        stream_run: 10.0,
        streams: 3,
        write_fraction: 0.25,
        footprint: 96 << 20,
        shared_fraction: 0.10,
        shared_write_fraction: 0.15,
        row_reuse: 0.50,
        reuse_window: 8,
    }
}

/// A named run configuration for the experiment harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// One SPEC application, rate mode (a copy on every core).
    Spec(&'static str),
    /// Every core runs an application of the group, round-robin
    /// (rate-mode approximation of the paper's per-app average).
    SpecGroupAvg(SpecGroup),
    /// All 29 SPEC applications round-robin ("spec-all").
    SpecAll,
    /// Multiprogrammed mixes (§VI-A).
    MixHigh,
    MixBlend,
    /// Multithreaded suites.
    TpcC,
    TpcH,
    Radix,
    Fft,
    Canneal,
    /// Multi-tenant colocation: the first `lc_cores` cores run a
    /// latency-critical OLTP service (TPC-C, tenant 0) and the rest run a
    /// throughput batch job (RADIX, tenant 1) on the same channels. The
    /// tenants are separate processes — no shared region — so all
    /// interference is in the memory system, which is exactly what the QoS
    /// regulators arbitrate.
    TenantMix {
        lc_cores: u16,
    },
}

impl Workload {
    pub fn label(&self) -> String {
        match self {
            Workload::Spec(n) => n.to_string(),
            Workload::SpecGroupAvg(g) => g.label().to_string(),
            Workload::SpecAll => "spec-all".to_string(),
            Workload::MixHigh => "mix-high".to_string(),
            Workload::MixBlend => "mix-blend".to_string(),
            Workload::TpcC => "TPC-C".to_string(),
            Workload::TpcH => "TPC-H".to_string(),
            Workload::Radix => "RADIX".to_string(),
            Workload::Fft => "FFT".to_string(),
            Workload::Canneal => "canneal".to_string(),
            Workload::TenantMix { lc_cores } => format!("tenant-mix-lc{lc_cores}"),
        }
    }

    /// Profiles assigned to `cores` hardware threads.
    pub fn assign(&self, cores: usize) -> Vec<AppProfile> {
        let cycle = |list: Vec<AppProfile>| -> Vec<AppProfile> {
            (0..cores).map(|i| list[i % list.len()]).collect()
        };
        match self {
            Workload::Spec(name) => {
                let p = spec::by_name(name).unwrap_or_else(|| panic!("unknown SPEC app {name}"));
                vec![p; cores]
            }
            Workload::SpecGroupAvg(g) => cycle(spec::group(*g).to_vec()),
            // spec-all uses the blended (high/med/low interleaved) order so
            // that any prefix of the assignment — e.g. a 4-copy policy
            // study — is itself representative of all three MAPKI groups.
            Workload::SpecAll => cycle(mix_blend()),
            Workload::MixHigh => cycle(mix_high()),
            Workload::MixBlend => cycle(mix_blend()),
            Workload::TpcC => vec![tpc_c(); cores],
            Workload::TpcH => vec![tpc_h(); cores],
            Workload::Radix => vec![radix(); cores],
            Workload::Fft => vec![fft(); cores],
            Workload::Canneal => vec![canneal(); cores],
            Workload::TenantMix { lc_cores } => (0..cores)
                .map(|i| {
                    if (i as u16) < *lc_cores {
                        tpc_c()
                    } else {
                        radix()
                    }
                })
                .collect(),
        }
    }

    /// Is this a multithreaded (shared-address-space) workload?
    /// `TenantMix` is deliberately not: its tenants are separate processes,
    /// so they contend only in the memory system.
    pub fn is_multithreaded(&self) -> bool {
        matches!(
            self,
            Workload::TpcC | Workload::TpcH | Workload::Radix | Workload::Fft | Workload::Canneal
        )
    }

    /// Tenant owning hardware thread `core` under this workload.
    pub fn tenant_of(&self, core: usize) -> TenantId {
        match self {
            Workload::TenantMix { lc_cores } => {
                if (core as u16) < *lc_cores {
                    TenantId(0)
                } else {
                    TenantId(1)
                }
            }
            _ => TenantId::default(),
        }
    }

    /// Number of distinct tenants this workload colocates.
    pub fn num_tenants(&self) -> usize {
        match self {
            Workload::TenantMix { .. } => 2,
            _ => 1,
        }
    }
}

/// Partition `capacity_bytes` of physical address space among `cores`
/// threads and build one deterministic source per thread. A shared region
/// (1/16 of capacity) is carved from the top for multithreaded workloads.
pub fn build_sources(
    workload: Workload,
    cores: usize,
    capacity_bytes: u64,
    seed: u64,
) -> Vec<SynthSource> {
    let profiles = workload.assign(cores);
    let shared = if workload.is_multithreaded() {
        capacity_bytes / 16
    } else {
        0
    };
    let private_total = capacity_bytes - shared;
    let per_thread = (private_total / cores as u64).max(128);
    let shared_base = private_total;
    profiles
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            SynthSource::new(
                p,
                seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1)),
                i as u64 * per_thread,
                per_thread,
                shared_base,
                shared,
            )
            .with_tenant(workload.tenant_of(i))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::validate;
    use microbank_cpu::instr::{Instr, InstrSource};

    #[test]
    fn suite_profiles_are_valid() {
        for p in [tpc_c(), tpc_h(), radix(), fft(), canneal()] {
            validate(&p).unwrap();
        }
    }

    #[test]
    fn tpch_has_high_locality_mcf_does_not() {
        // TPC-H's locality is working-set row reuse (buffer pool) plus
        // scan runs; mcf is pointer chasing with neither.
        assert!(tpc_h().row_reuse >= 0.5);
        let mcf = crate::spec::by_name("429.mcf").unwrap();
        assert!(mcf.stream_run <= 1.0);
        assert!(mcf.row_reuse < 0.1);
    }

    #[test]
    fn assignment_covers_all_cores() {
        for w in [
            Workload::Spec("429.mcf"),
            Workload::SpecGroupAvg(SpecGroup::High),
            Workload::SpecAll,
            Workload::MixHigh,
            Workload::TpcH,
            Workload::Radix,
        ] {
            assert_eq!(w.assign(64).len(), 64, "{}", w.label());
        }
    }

    #[test]
    fn group_avg_rotates_members() {
        let a = Workload::SpecGroupAvg(SpecGroup::High).assign(18);
        assert_eq!(a[0].name, "429.mcf");
        assert_eq!(a[9].name, "429.mcf");
        assert_eq!(a[1].name, "433.milc");
    }

    #[test]
    fn build_sources_partitions_address_space() {
        let mut srcs = build_sources(Workload::Spec("429.mcf"), 4, 1 << 30, 42);
        assert_eq!(srcs.len(), 4);
        let per = (1u64 << 30) / 4;
        for (i, s) in srcs.iter_mut().enumerate() {
            for _ in 0..2000 {
                if let Instr::Mem { addr, .. } = s.next_instr() {
                    let lo = i as u64 * per;
                    assert!((lo..lo + per).contains(&addr), "core {i}: {addr:#x}");
                }
            }
        }
    }

    #[test]
    fn multithreaded_workloads_share_a_region() {
        let mut srcs = build_sources(Workload::Radix, 8, 1 << 30, 7);
        let shared_base = (1u64 << 30) - (1u64 << 30) / 16;
        let mut shared_hits = 0;
        for s in srcs.iter_mut() {
            for _ in 0..5000 {
                if let Instr::Mem { addr, .. } = s.next_instr() {
                    if addr >= shared_base {
                        shared_hits += 1;
                    }
                }
            }
        }
        assert!(shared_hits > 0, "no shared-region traffic");
    }

    #[test]
    fn tenant_mix_tags_cores_by_tenant() {
        let w = Workload::TenantMix { lc_cores: 2 };
        assert_eq!(w.num_tenants(), 2);
        assert_eq!(w.label(), "tenant-mix-lc2");
        assert!(!w.is_multithreaded(), "tenants are separate processes");
        assert_eq!(w.tenant_of(1), TenantId(0));
        assert_eq!(w.tenant_of(2), TenantId(1));
        let profiles = w.assign(4);
        assert_eq!(profiles[0].name, "TPC-C");
        assert_eq!(profiles[3].name, "RADIX");
        let srcs = build_sources(w, 4, 1 << 28, 3);
        let tenants: Vec<TenantId> = srcs.iter().map(|s| s.tenant()).collect();
        assert_eq!(
            tenants,
            vec![TenantId(0), TenantId(0), TenantId(1), TenantId(1)]
        );
        // Single-tenant workloads keep everything on tenant 0.
        assert_eq!(Workload::MixHigh.num_tenants(), 1);
        assert_eq!(Workload::MixHigh.tenant_of(63), TenantId(0));
    }

    #[test]
    fn sources_are_deterministic_across_builds() {
        let collect = |seed: u64| {
            let mut srcs = build_sources(Workload::TpcH, 2, 1 << 28, seed);
            let mut v = Vec::new();
            for s in srcs.iter_mut() {
                for _ in 0..200 {
                    if let Instr::Mem { addr, .. } = s.next_instr() {
                        v.push(addr);
                    }
                }
            }
            v
        };
        assert_eq!(collect(1), collect(1));
        assert_ne!(collect(1), collect(2));
    }
}
