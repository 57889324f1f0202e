//! `perfbench --workload sweep|anneal|serve --seed N --seconds S --trace 0|1`
//!
//! Prints a metadata line, then the result line: one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits 1 when any op
//! or check failed, 2 on a bad command line.

use perfbench::{Config, Workload};
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload sweep|anneal|serve --seed N --seconds S --trace 0|1";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" if workload.is_none() => workload = Some(value.parse::<Workload>()?),
            "--seed" if seed.is_none() => {
                seed = Some(value.parse::<u64>().map_err(|_| bad("a u64"))?)
            }
            "--seconds" if seconds.is_none() => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" if trace.is_none() => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unexpected or repeated flag `{flag}`")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    // Searched compiles fan their restart chains out over
    // `MARIONETTE_THREADS` threads. One keeps each op on one CPU: on a
    // small virtual machine a fanned-out op waits for the other vCPU to
    // wake, and that wait swung anneal's p99 threefold between runs.
    // Set before any thread starts.
    std::env::set_var("MARIONETTE_THREADS", "1");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let rep = perfbench::run(&cfg);
    rep.print();
    if rep.correct && rep.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
