//! Command line of the qes benchmark.
//!
//! ```text
//! qesbench --workload <single_paper|cluster_diurnal|cluster_stressed|all>
//!          [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One workload per process, so peak memory is that workload's own. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. `--workload
//! all` runs every workload untraced and traced in child processes,
//! then a short smoke run of each on the held-out seed.

use std::process::{Command, ExitCode};

use qesbench::bench::{end_to_end, per_layer, RunResult};
use qesbench::host;
use qesbench::workloads::Workload;

/// Seed used when none is given.
const DEFAULT_SEED: u64 = 42;
/// Seed the `all` run's smoke pass uses. The benchmark was sized and
/// tuned without it, so a claim that holds here is not seed-tuned.
const HELD_OUT_SEED: u64 = 1013;
/// Host seconds of the smoke pass per workload.
const SMOKE_SECONDS: u64 = 1;

const USAGE: &str =
    "usage: qesbench --workload <single_paper|cluster_diurnal|cluster_stressed|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut all = false;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 10, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if value == "all" => all = true,
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if workload.is_none() && !all {
        return Err("--workload is required".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn print_result(label: &str, r: &RunResult) {
    for m in &r.metrics {
        println!("{label:<17} {:<28} {:>18} {}", m.name, m.value, m.unit);
    }
    for e in &r.errors {
        eprintln!("{label}: check failed: {e}");
    }
}

/// Run one workload in this process.
fn run_one(w: Workload, args: &Args) -> RunResult {
    println!(
        "# qesbench workload={} seed={} seconds={} trace={} jobs={} nproc={} lanes={} profile={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.jobs(),
        host::nproc(),
        host::lanes(),
        host::profile()
    );
    let seconds = args.seconds as f64;
    let r = if args.trace {
        per_layer(w, w.jobs(), args.seed, seconds)
    } else {
        end_to_end(w, w.jobs(), args.seed, seconds)
    };
    print_result(w.name(), &r);
    r
}

/// Run one workload in a child process and read back its result line.
fn run_child(w: Workload, seed: u64, seconds: u64, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot run {}: {e}", w.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    stdout
        .lines()
        .last()
        .filter(|l| l.starts_with('{'))
        .map(str::to_string)
        .ok_or_else(|| format!("{} printed no result", w.name()))
}

/// Field `"key": <value>` of a result line, as text.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = &line[at..];
    Some(&rest[..rest.find([',', '}'])?])
}

/// Every workload untraced and traced at `args.seed`, then a smoke
/// run on the held-out seed; one summary line at the end.
fn run_all(args: &Args) -> bool {
    let mut runs = Vec::new();
    for w in Workload::ALL {
        for trace in [false, true] {
            runs.push((w, args.seed, args.seconds, trace));
        }
    }
    for w in Workload::ALL {
        runs.push((w, HELD_OUT_SEED, SMOKE_SECONDS, false));
    }
    let (mut attempted, mut failed, mut ok) = (0u64, 0u64, true);
    for (w, seed, seconds, trace) in runs {
        match run_child(w, seed, seconds, trace) {
            Ok(line) => {
                attempted += field(&line, "attempted")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0);
                failed += field(&line, "failed")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(1);
                ok &= field(&line, "correct") == Some("true");
            }
            Err(e) => {
                eprintln!("{e}");
                ok = false;
            }
        }
    }
    let correct = ok && failed == 0 && attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{}}}}"
    );
    correct
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qesbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let correct = match args.workload {
        Some(w) => {
            let r = run_one(w, &args);
            println!("{}", r.to_json());
            r.correct()
        }
        None => run_all(&args),
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
