//! `holix-benchmark` — run one workload (the driver's contract) or the
//! whole suite, one child process per workload.
//!
//! ```text
//! holix-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--scale tiny|full]
//! holix-benchmark [--seed N] [--seconds S] [--scale tiny|full] [--traced] [--selfcheck]
//! ```
//!
//! A single run prints `workload/metric value unit` lines and, last, one
//! JSON object. The suite re-executes this binary per workload so that
//! `rss_peak_mb` and the process-wide telemetry registry are per workload.

use holix_benchmark::report::{
    metric_line, parse_bounds, parse_metric_lines, result_json, worsening,
};
use holix_benchmark::runner::{RunConfig, Scale};
use holix_benchmark::trace_report;
use holix_benchmark::workloads::{self, WORKLOADS};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

const DEFAULT_SEED: u64 = 1701;
/// Traced runs leave their span and layer files here (relative to the
/// working directory, which `run.sh` makes the repository root).
const OUT_DIR: &str = "benchmark/out";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    scale: Scale,
    traced: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        scale: Scale::Full,
        traced: false,
        selfcheck: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--scale" => {
                args.scale = match value()?.as_str() {
                    "tiny" => Scale::Tiny,
                    "full" => Scale::Full,
                    other => return Err(format!("--scale takes tiny or full, not {other}")),
                }
            }
            "--traced" => args.traced = true,
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn default_seconds(scale: Scale) -> f64 {
    match scale {
        Scale::Tiny => 1.0,
        Scale::Full => holix_benchmark::runner::DEFAULT_SECONDS,
    }
}

/// One workload in this process: the driver's contract.
fn run_one(workload: &str, args: &Args) -> ExitCode {
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(default_seconds(args.scale)),
        trace: args.trace,
        scale: args.scale,
        out_dir: Some(OUT_DIR.into()),
    };
    let Some(report) = workloads::run(workload, &cfg) else {
        eprintln!(
            "unknown workload {workload}; known: {}",
            WORKLOADS.map(|(name, _)| name).join(", ")
        );
        return ExitCode::from(2);
    };
    let end_to_end = report.end_to_end();
    let metrics = if cfg.trace {
        &report.per_layer
    } else {
        &end_to_end
    };
    println!(
        "# {workload} seed={} seconds={} trace={} nproc={} slices={} min_samples_beyond_p95={}",
        cfg.seed,
        cfg.seconds,
        cfg.trace as u8,
        workloads::nproc(),
        report.slices.len(),
        report.min_beyond_p95(),
    );
    for note in &report.notes {
        println!("# {note}");
    }
    for (k, s) in report.slices.iter().enumerate() {
        println!(
            "# slice {k}: {:.3} s  {:.1} ops/s  p50 {:.3} us  p95 {:.3} us  cpu {:.3} us/op{}",
            s.wall.as_secs_f64(),
            s.ops_per_s(),
            s.p50_ns as f64 / 1e3,
            s.p95_ns as f64 / 1e3,
            s.cpu_s * 1e6 / s.ops as f64,
            if s.traced { "  traced" } else { "" }
        );
    }
    let lines: Vec<String> = metrics.iter().map(|m| metric_line(workload, m)).collect();
    for line in &lines {
        println!("{line}");
    }
    println!("{workload}/ops_attempted {} count", report.attempted);
    println!("{workload}/ops_failed {} count", report.failed);
    if cfg.trace {
        // The layer-separation report reads these next to the span file.
        let path = format!("{OUT_DIR}/{workload}.layers.txt");
        if let Err(e) = std::fs::write(&path, lines.join("\n") + "\n") {
            println!("# could not write {path}: {e}");
        }
    }
    println!("{}", result_json(&report, metrics));
    ExitCode::SUCCESS
}

/// Every workload once, each in a child process; returns the parsed
/// `workload/metric` values, or `None` if a child failed.
fn run_suite(args: &Args, trace: bool) -> Option<BTreeMap<String, f64>> {
    let exe = std::env::current_exe().expect("own executable path");
    let mut all = BTreeMap::new();
    for (workload, _) in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .args([
                "--scale",
                if args.scale == Scale::Tiny {
                    "tiny"
                } else {
                    "full"
                },
            ]);
        if let Some(s) = args.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        let out = cmd.output().expect("spawn workload child");
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        if !out.status.success() {
            eprintln!("{workload}: child exited with {}", out.status);
            return None;
        }
        let parsed = parse_metric_lines(&text);
        if parsed.get(&format!("{workload}/ops_failed")) != Some(&0.0) {
            eprintln!("{workload}: failed operations");
            return None;
        }
        all.extend(parsed);
    }
    Some(all)
}

/// Two untraced suites on this binary must agree within the bounds.
fn selfcheck(args: &Args) -> ExitCode {
    let bounds = match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) => parse_bounds(&text),
        Err(e) => {
            eprintln!("BENCHMARK.json (run from the repository root): {e}");
            return ExitCode::from(2);
        }
    };
    let (Some(first), Some(second)) = (run_suite(args, false), run_suite(args, false)) else {
        return ExitCode::FAILURE;
    };
    let mut ok = true;
    println!("# selfcheck: second suite against first, same binary");
    for (workload, _) in WORKLOADS {
        for b in &bounds {
            let key = format!("{workload}/{}", b.name);
            let (Some(&a), Some(&z)) = (first.get(&key), second.get(&key)) else {
                println!("{key} MISSING");
                ok = false;
                continue;
            };
            let diff = worsening(a, z, b.higher_is_better).abs();
            let verdict = if diff <= b.bound { "ok" } else { "DIFFERS" };
            ok &= diff <= b.bound;
            println!(
                "{key} {a} -> {z}  diff {diff:.4}  bound {}  {verdict}",
                b.bound
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Some(workload) = &args.workload {
        return run_one(workload, &args);
    }
    if args.selfcheck {
        return selfcheck(&args);
    }
    if run_suite(&args, false).is_none() {
        return ExitCode::FAILURE;
    }
    if args.traced {
        if run_suite(&args, true).is_none() {
            return ExitCode::FAILURE;
        }
        if let Err(e) = trace_report::run(std::path::Path::new(OUT_DIR)) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
