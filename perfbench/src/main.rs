//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one summary line, then the result as one JSON object on the last line of
//! standard output.

use perfbench::campaign::{Workload, DEFAULT_SEED};
use perfbench::fixture::{self, BUILD_WARM_LOG};
use perfbench::run::{self, Options};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload <nominal|mc-cold|mc-warm|mc-farm> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>] [--work-dir <dir>]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut options = Options {
        workload: Workload::Nominal,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        work_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.work")),
        program: std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?,
    };
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("`{}` needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(value).ok_or(format!("unknown workload `{value}`"))?);
            }
            "--seed" => options.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                options.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad seconds `{value}`"))?;
            }
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}`")),
                };
            }
            "--work-dir" => options.work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    options.workload = workload.ok_or("`--workload` is required")?;
    Ok(options)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(BUILD_WARM_LOG) {
        let (Some(path), Some(Ok(seed))) = (args.get(1), args.get(2).map(|s| s.parse::<u64>()))
        else {
            eprintln!("usage: perfbench {BUILD_WARM_LOG} <log> <seed>");
            return ExitCode::from(2);
        };
        return match fixture::warm_log_child(&PathBuf::from(path), seed) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("perfbench: warm-log build failed: {err}");
                ExitCode::FAILURE
            }
        };
    }
    let options = match parse(&args) {
        Ok(options) => options,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run::run(&options, started) {
        Ok(report) => {
            if options.trace {
                let path = options
                    .work_dir
                    .join(format!("{}.spans.jsonl", options.workload.name()));
                let lines: String = report.spans.iter().map(|s| s.to_json() + "\n").collect();
                if let Err(err) = std::fs::write(&path, lines) {
                    eprintln!("perfbench: cannot write `{}`: {err}", path.display());
                }
            }
            println!("{}", report.summary);
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::FAILURE
        }
    }
}
