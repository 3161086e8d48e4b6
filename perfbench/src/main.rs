//! `rsmem-benchmark`: runs one workload, every workload (each in its own
//! process), or compares two reports.

use rsmem_benchmark::spec::spec;
use rsmem_benchmark::workloads::{self, Options, NAMES, PINNED_SEED};
use rsmem_benchmark::{render_metrics, report, result_line};
use std::process::{Command, ExitCode};

const USAGE: &str =
    "usage: rsmem-benchmark --workload <figures|mission|mc_word|mc_array|serve|all> \
[--seed N] [--seconds S] [--trace [0|1]] [--out PATH]
       rsmem-benchmark --compare OLD NEW";

/// Longest accepted `--seconds`.
const MAX_SECONDS: f64 = 3600.0;

#[derive(Debug, PartialEq)]
enum Cli {
    Run {
        workload: String,
        opts: Options,
        out: Option<String>,
    },
    Compare {
        old: String,
        new: String,
    },
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut opts = Options {
        seed: PINNED_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut out = None;
    let mut i = 0;
    while i < args.len() {
        let value = |k: usize| {
            args.get(i + k)
                .cloned()
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--workload" => workload = Some(value(1)?),
            "--seed" => {
                opts.seed = value(1)?
                    .parse()
                    .map_err(|_| "--seed expects an unsigned 64-bit integer".to_owned())?;
            }
            "--seconds" => {
                opts.seconds = value(1)?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= MAX_SECONDS)
                    .ok_or_else(|| format!("--seconds expects a number in (0, {MAX_SECONDS}]"))?;
            }
            "--trace" => {
                // `--trace` alone means `--trace 1`.
                match args.get(i + 1).map(String::as_str) {
                    Some("0") => opts.trace = false,
                    Some("1") => opts.trace = true,
                    _ => {
                        opts.trace = true;
                        i += 1;
                        continue;
                    }
                }
            }
            "--out" => out = Some(value(1)?),
            "--compare" => {
                let (old, new) = (value(1)?, value(2)?);
                if args.len() != 3 {
                    return Err("--compare takes exactly two report paths".to_owned());
                }
                return Ok(Cli::Compare { old, new });
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Cli::Run {
        workload,
        opts,
        out,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Err(message) => {
            eprintln!("rsmem-benchmark: {message}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Cli::Compare { old, new }) => compare(&old, &new),
        Ok(Cli::Run { workload, .. }) if workload == "all" => run_all(&args),
        Ok(Cli::Run {
            workload,
            opts,
            out,
        }) => run_one(&workload, &opts, out.as_deref()),
    }
}

fn run_one(workload: &str, opts: &Options, out: Option<&str>) -> ExitCode {
    let outcome = match workloads::run(workload, opts) {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("rsmem-benchmark: {message}");
            return ExitCode::FAILURE;
        }
    };
    for message in &outcome.failures {
        eprintln!("rsmem-benchmark: {workload}: failed: {message}");
    }
    if let Some(path) = out {
        if let Err(message) = report::append(path, report::run_json(workload, opts, &outcome)) {
            eprintln!("rsmem-benchmark: {message}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "{workload} seed {} trace {}: {} operations, {} failed, fingerprint {:016x}",
        opts.seed,
        u8::from(opts.trace),
        outcome.attempted,
        outcome.failed,
        outcome.fingerprint
    );
    print!("{}", render_metrics(&outcome, opts.trace));
    println!("{}", result_line(&outcome, opts.trace));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in its own process, so process-wide state (the
/// daemon switches the profiler and flight recorder on) and peak memory
/// stay per workload.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("rsmem-benchmark: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for name in NAMES {
        let mut child_args = args.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("parse_args requires --workload");
        child_args[at + 1] = name.to_owned();
        match Command::new(&exe).args(&child_args).status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("rsmem-benchmark: workload {name} exited with {status}");
                ok = false;
            }
            Err(e) => {
                eprintln!("rsmem-benchmark: cannot run workload {name}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare(old: &str, new: &str) -> ExitCode {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| report::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (old_runs, new_runs) = match (load(old), load(new)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("rsmem-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let cmp = report::compare(&old_runs, &new_runs, spec());
    print!("{}", cmp.render_text());
    if cmp.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn the_contract_invocation_parses() {
        let cli = parse_args(&args("--workload serve --seed 42 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            cli,
            Cli::Run {
                workload: "serve".to_owned(),
                opts: Options {
                    seed: 42,
                    seconds: 10.0,
                    trace: true
                },
                out: None
            }
        );
        let Cli::Run { opts, .. } = parse_args(&args("--trace --workload all")).unwrap() else {
            panic!("not a run");
        };
        assert!(opts.trace);
        assert_eq!(opts.seed, PINNED_SEED);
        assert_eq!(
            parse_args(&args("--compare a.json b.json")).unwrap(),
            Cli::Compare {
                old: "a.json".to_owned(),
                new: "b.json".to_owned()
            }
        );
    }

    #[test]
    fn sizes_are_not_flags() {
        // Workload sizes are constants of the library; only the seed,
        // the time budget and tracing vary per run.
        for flag in ["--trials", "--points", "--threads", "--clients", "--words"] {
            let err = parse_args(&args(&format!("--workload mission {flag} 9"))).unwrap_err();
            assert!(err.contains("unknown argument"), "{flag}: {err}");
        }
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload mission --seconds 0")).is_err());
        assert!(parse_args(&args("--workload mission --seed -1")).is_err());
        assert!(parse_args(&args("--seed 3")).is_err());
    }
}
