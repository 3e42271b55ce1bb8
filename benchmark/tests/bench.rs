//! The benchmark's own checks: its declared metrics, its correctness gate,
//! and the traced drive's exactness. Run with
//! `cargo test --release --offline --manifest-path benchmark/Cargo.toml`.

use microbank_perfbench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use microbank_perfbench::runner::{self, Bench, Gate};
use microbank_perfbench::traced::run_traced;
use microbank_sim::simulator::golden_fingerprint;

/// `(name, unit, better)` of every metric in one section of BENCHMARK.json
/// (the file is written by hand in a fixed layout: one object per line).
fn declared(section: &str) -> Vec<(String, String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let start = text
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |line: &str, key: &str| -> String {
        let tag = format!("\"{key}\": \"");
        let i = line.find(&tag).unwrap_or_else(|| panic!("{key} in {line}")) + tag.len();
        line[i..i + line[i..].find('"').unwrap()].to_string()
    };
    body.lines()
        .filter(|l| l.contains("\"name\""))
        .map(|l| (field(l, "name"), field(l, "unit"), field(l, "better")))
        .collect()
}

fn as_tuples(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| (d.name.into(), d.unit.into(), d.better.label().into()))
        .collect()
}

fn valid_name(n: &str) -> bool {
    !n.is_empty()
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn printed_metrics_are_the_declared_ones() {
    assert_eq!(as_tuples(END_TO_END), declared("end_to_end"));
    assert_eq!(as_tuples(PER_LAYER), declared("per_layer"));
    for d in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(d.name), "bad metric name {}", d.name);
    }
    let workloads: Vec<String> = Bench::ALL.iter().map(|b| b.name().to_string()).collect();
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
    for w in &workloads {
        assert!(valid_name(w));
        assert!(
            text.contains(&format!("{{\"name\": \"{w}\", \"why\"")),
            "{w} not declared"
        );
    }

    // A timed and a traced run print exactly the declared metrics.
    let names = |o: &runner::Outcome| o.metrics.iter().map(|(n, _)| *n).collect::<Vec<_>>();
    let seed = 11;
    let timed = runner::measure(
        Bench::MixHigh,
        seed,
        0.0,
        true,
        Gate::for_seed(Bench::MixHigh, seed),
    );
    assert_eq!(timed.failed, 0, "{:?}", timed.failures);
    assert_eq!(
        names(&timed),
        END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>()
    );
    let traced = runner::trace(Bench::Radix, seed, true, Gate::for_seed(Bench::Radix, seed));
    assert_eq!(traced.failed, 0, "{:?}", traced.failures);
    assert_eq!(
        names(&traced),
        PER_LAYER.iter().map(|d| d.name).collect::<Vec<_>>()
    );
}

#[test]
fn corrupted_reference_registers_as_failed_runs() {
    let bench = Bench::MixHigh;
    let cfgs = bench.configs(runner::DEFAULT_SEED, true);
    let mut reference: Vec<_> = runner::run_set(bench, &cfgs)
        .iter()
        .map(|r| golden_fingerprint(r.as_ref().expect("quick run succeeds")))
        .collect();

    // The true reference passes...
    let ok = runner::measure(
        bench,
        runner::DEFAULT_SEED,
        0.0,
        true,
        Gate::new(Some(reference.clone())),
    );
    assert_eq!(ok.failed, 0, "{:?}", ok.failures);

    // ...one flipped DRAM counter fails the run and withholds the metrics.
    reference[0][1] ^= 1;
    let bad = runner::measure(
        bench,
        runner::DEFAULT_SEED,
        0.0,
        true,
        Gate::new(Some(reference)),
    );
    assert_eq!(bad.failed, 1, "{:?}", bad.failures);
    assert!(bad.failures[0].contains("differs from reference"));
    assert!(bad.metrics.is_empty());
}

#[test]
fn traced_drive_matches_the_program_on_a_quick_window() {
    for bench in Bench::ALL {
        let cfgs = bench.configs(7, true);
        // The grid's corner cells: (1,1) and (16,16).
        let picked = [0, cfgs.len() - 1];
        for &i in picked.iter().take(cfgs.len()) {
            let cfg = &cfgs[i];
            let program = runner::run_one(&cfg.clone().with_time_skip(false)).unwrap();
            let traced = run_traced(cfg).result;
            let what = format!("{} cell {i}", bench.name());
            assert_eq!(
                golden_fingerprint(&traced),
                golden_fingerprint(&program),
                "{what}"
            );
            assert_eq!(
                traced.mean_queue_occupancy, program.mean_queue_occupancy,
                "{what}"
            );
            assert_eq!(traced.edp_per_work(), program.edp_per_work(), "{what}");
            assert_eq!(traced.policy_hit_rate, program.policy_hit_rate, "{what}");
        }
    }
}
