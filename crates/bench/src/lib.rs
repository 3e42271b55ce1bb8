//! # microbank-bench
//!
//! Shared plumbing for the paper-reproduction harness binaries (`fig*`,
//! `table*`, `headline`) and the performance/regression gates
//! (`bench_hotpath`, `bench_variants`, `bench_qos`). The heavy lifting
//! lives in `microbank-sim`; this crate holds output formatting helpers
//! shared by the binaries.

/// Format a 5×5 (nW, nB) matrix the way the paper's heatmap figures print:
/// rows are `nB` ∈ {1,2,4,8,16} (top = 1), columns `nW` ∈ {1,2,4,8,16}.
pub fn format_matrix(title: &str, m: &[Vec<f64>]) -> String {
    let degrees = [1usize, 2, 4, 8, 16];
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str("nB\\nW ");
    for d in degrees {
        out.push_str(&format!("{d:>8}"));
    }
    out.push('\n');
    for (i, row) in m.iter().enumerate() {
        out.push_str(&format!("{:>5} ", degrees[i]));
        for v in row {
            out.push_str(&format!("{v:>8.3}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn matrix_formatting_includes_all_cells() {
        let m: Vec<Vec<f64>> = (0..5)
            .map(|i| (0..5).map(|j| (i * 5 + j) as f64).collect())
            .collect();
        let s = super::format_matrix("t", &m);
        assert!(s.contains("24.000"));
        assert_eq!(s.lines().count(), 7);
    }
}
