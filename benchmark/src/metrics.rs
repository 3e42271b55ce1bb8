//! The benchmark's metric registry, the summary statistics it reports, and
//! the output format (a self-describing table plus one JSON result line).
//!
//! Every metric the benchmark prints is declared here with its unit and
//! direction of improvement; `BENCHMARK.json` at the repo root declares
//! the same list in the same order (checked by `tests/bench.rs`).

use microbank_core::hist::Histogram;

/// Direction of improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// Printed by every untraced run (`--trace 0`), on every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("sim_mips", "Minstr/s", Higher),
    m("sim_mcycles_per_s", "Mcycles/s", Higher),
    m("figure_s", "s", Lower),
    m("setup_s", "s", Lower),
    m("peak_rss_mib", "MiB", Lower),
    m("ipc", "instr/cycle", Higher),
    m("read_latency_mean_cyc", "cycles", Lower),
    m("read_latency_p99_cyc", "cycles", Lower),
    m("row_miss_rate", "ratio", Lower),
    m("edp", "J.s", Lower),
];

/// Printed by every traced run (`--trace 1`), on every workload.
pub const PER_LAYER: &[MetricDef] = &[
    m("workloads.instrs", "count", Higher),
    m("workloads.next_s", "s", Lower),
    m("cpu.tick_calls", "count", Lower),
    m("cpu.tick_s", "s", Lower),
    m("cpu.fills", "count", Higher),
    m("cpu.fill_s", "s", Lower),
    m("cpu.l1_hit_rate", "ratio", Higher),
    m("cpu.l2_hit_rate", "ratio", Higher),
    m("cpu.forwards", "count", Lower),
    m("cpu.upgrades", "count", Lower),
    m("ctrl.tick_calls", "count", Lower),
    m("ctrl.tick_s", "s", Lower),
    m("ctrl.cmds_per_tick", "cmds/tick", Higher),
    m("ctrl.enqueues", "count", Higher),
    m("ctrl.enqueue_s", "s", Lower),
    m("ctrl.enqueue_reject_ratio", "ratio", Lower),
    m("ctrl.completions", "count", Higher),
    m("ctrl.queue_occupancy_mean", "requests", Lower),
    m("core.decodes", "count", Lower),
    m("core.decode_s", "s", Lower),
    m("core.activates", "count", Lower),
    m("core.precharges", "count", Lower),
    m("core.reads", "count", Higher),
    m("core.writes", "count", Higher),
    m("core.refreshes", "count", Lower),
    m("core.row_conflicts", "count", Lower),
    m("core.data_bus_util", "ratio", Higher),
    m("energy.integrate_s", "s", Lower),
    m("energy.nj_per_read", "nJ", Lower),
    m("sim.drive_self_s", "s", Lower),
    m("sim.deliveries", "count", Higher),
    m("sim.ctrl_tick_share", "ratio", Lower),
    m("sim.skip_speedup", "ratio", Higher),
    m("sim.sweep_efficiency", "ratio", Higher),
    m("sim.trace_overhead", "ratio", Lower),
];

/// Median and quartiles of one metric's samples within a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// A value computed once (an exact simulated quantity or a single
    /// measurement).
    pub fn exact(v: f64) -> Self {
        Summary {
            n: 1,
            median: v,
            q1: v,
            q3: v,
        }
    }

    /// Median and quartiles by the same rule as Python's
    /// `statistics.quantiles(data, n=4)` (the "exclusive" method).
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "a summary needs at least one sample");
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        if n == 1 {
            return Summary::exact(s[0]);
        }
        // Python's exclusive method, including its clamp at the ends
        // (which extrapolates slightly beyond the extremes for tiny n).
        let q = |i: usize| {
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
        };
        Summary {
            n,
            median: q(2),
            q1: q(1),
            q3: q(3),
        }
    }
}

/// Read-latency p99 from the program's log₂ histogram, interpolated
/// linearly by rank inside the bucket that holds the 99th-percentile
/// sample (the bucket's top is clipped to the largest sample, as
/// [`Histogram::percentile`] does). The bucket bound alone jumps by 2×
/// between seeds (511 ↔ 1023 on RADIX), which no relative bound can carry.
pub fn p99_interpolated(h: &Histogram) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    // Bucket top (clipped to max) of the bucket holding the k-th smallest
    // sample, 1-based: `percentile` targets rank ceil(n * p).
    let at_rank = |k: u64| h.percentile((k as f64 - 0.5) / n as f64);
    let k99 = ((n as f64 * 0.99).ceil() as u64).max(1);
    let top = at_rank(k99);
    let bucket = (63 - top.max(1).leading_zeros()) as usize;
    let low = Histogram::bucket_low(bucket);
    // First and last ranks inside the bucket (ranks are monotone in value).
    let (mut a, mut b) = (1u64, k99);
    while a < b {
        let mid = a + (b - a) / 2;
        if at_rank(mid) >= low {
            b = mid;
        } else {
            a = mid + 1;
        }
    }
    let first = a;
    let (mut a, mut b) = (k99, n);
    while a < b {
        let mid = a + (b - a).div_ceil(2);
        if at_rank(mid) <= top {
            a = mid;
        } else {
            b = mid - 1;
        }
    }
    let last = a;
    let frac = (k99 - first) as f64 + 0.5;
    low as f64 + (top - low) as f64 * frac / (last - first + 1) as f64
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A JSON number with every digit of the measurement (shortest
/// round-trip form; exponent notation for very small magnitudes).
pub fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a finite number");
    if v != 0.0 && v.abs() < 1e-6 {
        format!("{v:e}")
    } else {
        format!("{v}")
    }
}

/// The table of a run: one row per declared metric, in declaration order.
pub fn table(defs: &[MetricDef], values: &[(&'static str, Summary)]) -> String {
    let mut out = String::from(
        "# metric                        unit        better    n  median           q1               q3\n",
    );
    for d in defs {
        let s = lookup(values, d.name);
        out.push_str(&format!(
            "# {:<29} {:<11} {:<7} {:>4}  {:<16} {:<16} {}\n",
            d.name,
            d.unit,
            d.better.label(),
            s.n,
            json_number(s.median),
            json_number(s.q1),
            json_number(s.q3)
        ));
    }
    out
}

/// The result line: exactly the keys `correct`, `attempted`, `failed` and
/// `metrics`, with one `{value, unit}` entry per declared metric.
pub fn result_json(
    defs: &[MetricDef],
    values: &[(&'static str, Summary)],
    attempted: u64,
    failed: u64,
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(lookup(values, d.name).median),
                d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

fn lookup(values: &[(&'static str, Summary)], name: &str) -> Summary {
    values
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} was not measured"))
        .1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
    }

    #[test]
    fn p99_interpolates_inside_its_bucket() {
        // 100 samples: 90 at 10, then 10 spread over bucket [512, 1023].
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.record(10);
        }
        for v in [520, 560, 600, 640, 680, 720, 760, 800, 840, 900] {
            h.record(v);
        }
        // Rank 99 is the 9th of 10 samples in [512, 900]: 512 + 388 * 8.5/10.
        let p = p99_interpolated(&h);
        assert!((p - (512.0 + 388.0 * 0.85)).abs() < 1e-9, "{p}");
        assert!(p <= h.percentile(0.99) as f64);
    }
}
