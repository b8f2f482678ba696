//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable lines, then one JSON result line last. Exits
//! 1 when an output check fails and 2 on a usage or set-up error.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use perfbench::bench::{self, Options, Workload, DEFAULT_SEED};

const USAGE: &str = "usage: perfbench --workload <user-4k|user-64k|paper-sweep> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut opts = Options {
        workload: Workload::User4k,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scale: None,
        expected: None,
        state_dir: PathBuf::from(".perfbench"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let started = Instant::now();
    // The benchmark measures the default engine: the simulator's `TW_*`
    // environment knobs must not change what a run measures.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("TW_") {
            std::env::remove_var(key);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match bench::run(&opts, started) {
        Ok(report) => {
            println!("{}", report.json_line());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
