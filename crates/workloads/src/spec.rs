//! The SPEC CPU2006 catalog (paper Table II).
//!
//! The paper groups the 29 applications by main-memory accesses per
//! kilo-instruction (MAPKI) into spec-high / spec-med / spec-low; Fig. 8,
//! 9, 10, 12 and 13 report 429.mcf, 450.soplex, 471.omnetpp, and the group
//! averages. Profiles encode each application's published memory character:
//! pointer-chasing (mcf, omnetpp), streaming (libquantum, lbm, leslie3d),
//! and blends, with hot-set fractions calibrated to the group's MAPKI class.

use crate::profile::AppProfile;

/// Table II group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecGroup {
    High,
    Med,
    Low,
}

impl SpecGroup {
    pub fn label(&self) -> &'static str {
        match self {
            SpecGroup::High => "spec-high",
            SpecGroup::Med => "spec-med",
            SpecGroup::Low => "spec-low",
        }
    }
}

/// Build one SPEC profile. `hot` sets the MAPKI class, `run`/`streams` the
/// locality/BLP, `wr` the write mix, `fp_mb` the footprint.
const fn spec(
    name: &'static str,
    hot: f64,
    run: f64,
    streams: usize,
    wr: f64,
    fp_mb: u64,
) -> AppProfile {
    AppProfile {
        name,
        mem_fraction: 0.32,
        hot_fraction: hot,
        hot_bytes: 8 * 1024,
        stream_run: run,
        streams,
        write_fraction: wr,
        footprint: fp_mb << 20,
        shared_fraction: 0.0,
        shared_write_fraction: 0.0,
        row_reuse: 0.0,
        reuse_window: 8,
    }
}

/// The spec-high applications (Table II row 1).
pub const SPEC_HIGH: &[AppProfile] = &[
    spec("429.mcf", 0.85, 1.0, 4, 0.20, 96),
    spec("433.milc", 0.90, 16.0, 2, 0.35, 64),
    spec("437.leslie3d", 0.90, 32.0, 3, 0.35, 64),
    spec("450.soplex", 0.89, 6.0, 3, 0.25, 64),
    spec("459.GemsFDTD", 0.90, 24.0, 3, 0.35, 64),
    spec("462.libquantum", 0.88, 64.0, 1, 0.30, 32),
    spec("470.lbm", 0.88, 48.0, 2, 0.45, 64),
    spec("471.omnetpp", 0.90, 2.0, 3, 0.30, 48),
    spec("482.sphinx3", 0.90, 8.0, 2, 0.10, 48),
];

/// The spec-med applications (Table II row 2).
pub const SPEC_MED: &[AppProfile] = &[
    spec("403.gcc", 0.975, 4.0, 2, 0.30, 32),
    spec("410.bwaves", 0.970, 32.0, 2, 0.30, 48),
    spec("434.zeusmp", 0.972, 16.0, 2, 0.35, 48),
    spec("436.cactusADM", 0.970, 24.0, 2, 0.35, 48),
    spec("458.sjeng", 0.980, 2.0, 2, 0.25, 24),
    spec("464.h264ref", 0.978, 8.0, 2, 0.25, 24),
    spec("465.tonto", 0.978, 6.0, 2, 0.30, 24),
    spec("473.astar", 0.972, 2.0, 3, 0.25, 32),
    spec("481.wrf", 0.974, 16.0, 2, 0.30, 48),
    spec("483.xalancbmk", 0.975, 3.0, 3, 0.25, 32),
];

/// The spec-low applications (Table II row 3).
pub const SPEC_LOW: &[AppProfile] = &[
    spec("400.perlbench", 0.9965, 3.0, 2, 0.30, 16),
    spec("401.bzip2", 0.9960, 8.0, 2, 0.30, 16),
    spec("416.gamess", 0.9975, 4.0, 2, 0.25, 16),
    spec("435.gromacs", 0.9965, 8.0, 2, 0.30, 16),
    spec("444.namd", 0.9970, 8.0, 2, 0.25, 16),
    spec("445.gobmk", 0.9965, 2.0, 2, 0.25, 16),
    spec("447.dealII", 0.9960, 6.0, 2, 0.25, 16),
    spec("453.povray", 0.9975, 2.0, 2, 0.20, 16),
    spec("454.calculix", 0.9965, 12.0, 2, 0.30, 16),
    spec("456.hmmer", 0.9960, 16.0, 2, 0.25, 16),
];

/// All 29 applications.
pub fn all_spec() -> Vec<AppProfile> {
    [SPEC_HIGH, SPEC_MED, SPEC_LOW].concat()
}

/// The profiles of one Table II group.
pub fn group(g: SpecGroup) -> &'static [AppProfile] {
    match g {
        SpecGroup::High => SPEC_HIGH,
        SpecGroup::Med => SPEC_MED,
        SpecGroup::Low => SPEC_LOW,
    }
}

/// Group of an application by name, if it is a SPEC application.
pub fn group_of(name: &str) -> Option<SpecGroup> {
    for (g, list) in [
        (SpecGroup::High, SPEC_HIGH),
        (SpecGroup::Med, SPEC_MED),
        (SpecGroup::Low, SPEC_LOW),
    ] {
        if list.iter().any(|p| p.name == name) {
            return Some(g);
        }
    }
    None
}

/// Look up a SPEC profile by name (e.g. `"429.mcf"`).
pub fn by_name(name: &str) -> Option<AppProfile> {
    all_spec().into_iter().find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::validate;

    #[test]
    fn table_ii_membership_matches_paper() {
        let high: Vec<&str> = SPEC_HIGH.iter().map(|p| p.name).collect();
        assert_eq!(
            high,
            [
                "429.mcf",
                "433.milc",
                "437.leslie3d",
                "450.soplex",
                "459.GemsFDTD",
                "462.libquantum",
                "470.lbm",
                "471.omnetpp",
                "482.sphinx3"
            ]
        );
        assert_eq!(SPEC_MED.len(), 10);
        assert_eq!(SPEC_LOW.len(), 10);
        assert_eq!(all_spec().len(), 29);
    }

    #[test]
    fn every_profile_is_valid() {
        for p in all_spec() {
            validate(&p).unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn mapki_classes_are_ordered() {
        let mean = |list: &[AppProfile]| {
            list.iter().map(|p| p.nominal_mapki()).sum::<f64>() / list.len() as f64
        };
        let h = mean(SPEC_HIGH);
        let m = mean(SPEC_MED);
        let l = mean(SPEC_LOW);
        assert!(h > 2.0 * m, "high {h} vs med {m}");
        assert!(m > 2.0 * l, "med {m} vs low {l}");
        assert!(h > 25.0, "spec-high must be memory-bandwidth-bound: {h}");
        assert!(l < 2.0, "spec-low must be compute-bound: {l}");
    }

    #[test]
    fn mcf_is_pointer_chasing_libquantum_is_streaming() {
        let mcf = by_name("429.mcf").unwrap();
        let libq = by_name("462.libquantum").unwrap();
        assert_eq!(mcf.stream_run, 1.0);
        assert!(libq.stream_run >= 32.0);
    }

    #[test]
    fn group_lookup() {
        assert_eq!(group_of("429.mcf"), Some(SpecGroup::High));
        assert_eq!(group_of("403.gcc"), Some(SpecGroup::Med));
        assert_eq!(group_of("456.hmmer"), Some(SpecGroup::Low));
        assert_eq!(group_of("nonexistent"), None);
        assert_eq!(group(SpecGroup::High).len(), 9);
    }
}
