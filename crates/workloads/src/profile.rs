//! Application profiles: the statistical parameters the synthetic
//! instruction-stream generators run from.
//!
//! The paper's evaluation is driven by SPEC CPU2006, TPC-C/H, SPLASH-2 and
//! PARSEC traces; we reproduce each application as a parameterized address
//! stream (DESIGN.md §2). The parameters map one-to-one onto the memory
//! behaviours the paper's results depend on: main-memory intensity (MAPKI,
//! Table II), row-buffer spatial locality (sequential run lengths),
//! bank-level parallelism (concurrent streams), read/write mix, and
//! inter-thread sharing for the multithreaded suites.

/// Statistical profile of one application (per hardware thread).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppProfile {
    pub name: &'static str,
    /// Fraction of instruction slots that are memory accesses (~0.3 for
    /// typical integer/FP code).
    pub mem_fraction: f64,
    /// Fraction of memory accesses hitting the thread's hot working set
    /// (cache-resident; never reaches DRAM after warmup).
    pub hot_fraction: f64,
    /// Hot working-set bytes (must fit in L1 for a clean split).
    pub hot_bytes: u64,
    /// Mean sequential run length, in 64 B lines, of cold accesses. 1 =
    /// fully random (pointer chasing); 32+ = streaming.
    pub stream_run: f64,
    /// Concurrent cold streams per thread, interleaved round-robin —
    /// memory-level parallelism and bank-conflict pressure.
    pub streams: usize,
    /// Fraction of memory accesses that are writes.
    pub write_fraction: f64,
    /// Cold footprint per thread, bytes (clamped to the region the sim
    /// assigns).
    pub footprint: u64,
    /// Fraction of memory accesses to the process-shared region
    /// (multithreaded suites; 0 for SPEC rate runs).
    pub shared_fraction: f64,
    /// Fraction of shared-region accesses that are writes.
    pub shared_write_fraction: f64,
    /// Fraction of cold accesses that revisit a recently touched 8 KB DRAM
    /// row at a *random column* (buffer-pool / working-set reuse). This is
    /// the locality that makes open-row capacity in *bytes* matter: nB
    /// partitioning multiplies the number of open 8 KB rows and captures
    /// these revisits, while nW partitioning shrinks each row and does not
    /// (paper §VI-B: TPC-H is sensitive to nB, not nW).
    pub row_reuse: f64,
    /// How many recently touched rows stay revisitable per thread.
    pub reuse_window: usize,
}

impl AppProfile {
    /// Expected main-memory accesses per kilo-instruction, assuming all
    /// cold (non-hot) accesses miss the cache hierarchy after warmup and
    /// each miss costs one line fill (writebacks add more on top).
    pub fn nominal_mapki(&self) -> f64 {
        1000.0 * self.mem_fraction * (1.0 - self.hot_fraction)
    }

    /// A conservative baseline profile to build variants from.
    pub const fn base(name: &'static str) -> Self {
        AppProfile {
            name,
            mem_fraction: 0.30,
            hot_fraction: 0.97,
            hot_bytes: 8 * 1024,
            stream_run: 4.0,
            streams: 2,
            write_fraction: 0.3,
            footprint: 64 << 20,
            shared_fraction: 0.0,
            shared_write_fraction: 0.0,
            row_reuse: 0.0,
            reuse_window: 8,
        }
    }
}

/// Validation helpers shared by the catalog tests.
pub fn validate(p: &AppProfile) -> Result<(), String> {
    let frac = |v: f64, n: &str| {
        if (0.0..=1.0).contains(&v) {
            Ok(())
        } else {
            Err(format!("{}: {n} = {v} out of [0,1]", p.name))
        }
    };
    frac(p.mem_fraction, "mem_fraction")?;
    frac(p.hot_fraction, "hot_fraction")?;
    frac(p.write_fraction, "write_fraction")?;
    frac(p.shared_fraction, "shared_fraction")?;
    frac(p.shared_write_fraction, "shared_write_fraction")?;
    frac(p.row_reuse, "row_reuse")?;
    if p.row_reuse > 0.0 && p.reuse_window == 0 {
        return Err(format!("{}: row_reuse without reuse_window", p.name));
    }
    if p.hot_fraction + p.shared_fraction > 1.0 {
        return Err(format!("{}: hot + shared > 1", p.name));
    }
    if p.stream_run < 1.0 {
        return Err(format!("{}: stream_run < 1", p.name));
    }
    if p.streams == 0 {
        return Err(format!("{}: zero streams", p.name));
    }
    if p.hot_bytes == 0 || p.footprint == 0 {
        return Err(format!("{}: empty regions", p.name));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_mapki_math() {
        let mut p = AppProfile::base("x");
        p.mem_fraction = 0.3;
        p.hot_fraction = 0.8;
        assert!((p.nominal_mapki() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn base_profile_is_valid() {
        validate(&AppProfile::base("b")).unwrap();
    }

    #[test]
    fn validation_catches_bad_fractions() {
        let mut p = AppProfile::base("bad");
        p.hot_fraction = 0.9;
        p.shared_fraction = 0.2;
        assert!(validate(&p).is_err());
    }
}
