//! perfbench: run one workload of the benchmark and print its metrics.
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! perfbench --print-golden
//! ```
//!
//! `--trace 0` times the workload for `--seconds` and prints the end-to-end
//! metrics; `--trace 1` runs it on the traced drive and prints the
//! per-layer metrics. The last line of standard output is the JSON result.
//! The exit code is non-zero when any run failed or mismatched its
//! reference.

use microbank_perfbench::golden;
use microbank_perfbench::metrics::{result_json, table, END_TO_END, PER_LAYER};
use microbank_perfbench::runner::{self, Bench, Gate, DEFAULT_SEED};
use microbank_sim::simulator::golden_fingerprint;
use std::process::{Command, ExitCode};

struct Args {
    bench: Bench,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut bench = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-golden" {
            return Ok(None);
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                bench = Some(Bench::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Bench::ALL.iter().map(|b| b.name()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let bench = bench.ok_or("--workload is required")?;
    Ok(Some(Args {
        bench,
        seed,
        seconds,
        trace,
    }))
}

/// First line of a command's output, or `unknown`.
fn probe(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Print the reference fingerprints at the default seed as `golden.rs`
/// constants, after checking that time skip on and off agree.
fn print_golden() -> ExitCode {
    for bench in Bench::ALL {
        let cfgs = bench.configs(DEFAULT_SEED, false);
        let no_skip: Vec<_> = cfgs
            .iter()
            .cloned()
            .map(|c| c.with_time_skip(false))
            .collect();
        let skip_on = runner::run_set(bench, &cfgs);
        let mut gate = Gate::new(None);
        gate.check("time skip on", &skip_on);
        gate.check("time skip off", &runner::run_set(bench, &no_skip));
        if !gate.failures.is_empty() {
            eprintln!("{}: {:?}", bench.name(), gate.failures);
            return ExitCode::FAILURE;
        }
        let prints: Vec<_> = skip_on.iter().flatten().map(golden_fingerprint).collect();
        let name = bench.name().to_uppercase().replace('-', "_");
        println!(
            "#[rustfmt::skip]\nconst {name}: [Fingerprint; {}] = [",
            prints.len()
        );
        for p in prints {
            println!("    {p:?},");
        }
        println!("];");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    // The program reads these at run time; the benchmark pins threads and
    // time skip itself, so an inherited value must not change what runs.
    let mut ignored = Vec::new();
    for var in ["MICROBANK_THREADS", "MICROBANK_NO_SKIP"] {
        if let Some(v) = std::env::var_os(var) {
            ignored.push(format!("{var}={}", v.to_string_lossy()));
            std::env::remove_var(var);
        }
    }
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return print_golden(),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let gate = Gate::for_seed(args.bench, args.seed);
    let reference = if golden::reference(args.bench, args.seed).is_some() {
        "stored golden fingerprints"
    } else {
        "agreement between all runs of this process"
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.bench.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!(
        "# host nproc={} commit={} rustc=\"{}\"",
        runner::nproc(),
        // Only this directory's own repository: a checkout that is not a
        // git repository must not report an enclosing one's commit.
        if std::path::Path::new(".git").exists() {
            probe("git", &["rev-parse", "HEAD"])
        } else {
            "unknown".into()
        },
        probe("rustc", &["--version"])
    );
    println!("# correctness reference: {reference}");
    if !ignored.is_empty() {
        println!("# ignored inherited environment: {}", ignored.join(" "));
    }
    let (outcome, defs) = if args.trace {
        (runner::trace(args.bench, args.seed, false, gate), PER_LAYER)
    } else {
        let o = runner::measure(args.bench, args.seed, args.seconds, false, gate);
        (o, END_TO_END)
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for f in &outcome.failures {
        println!("# FAILED {f}");
        eprintln!("perfbench: FAILED {f}");
    }
    if outcome.failed > 0 {
        println!(
            "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
            outcome.attempted, outcome.failed
        );
        return ExitCode::FAILURE;
    }
    print!("{}", table(defs, &outcome.metrics));
    println!(
        "{}",
        result_json(defs, &outcome.metrics, outcome.attempted, outcome.failed)
    );
    ExitCode::SUCCESS
}
