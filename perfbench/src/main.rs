//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints, last, one JSON line with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Exits non-zero when
//! any output failed its check.

use std::process::ExitCode;

use perfbench::{Settings, Sizes, Workload};

const USAGE: &str = "usage: perfbench --workload <eval-closure|net-process|net-lossy> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Settings, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Settings {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        sizes: Sizes::full(),
    })
}

fn main() -> ExitCode {
    perfbench::host::pin_to_one_cpu();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let settings = match parse(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = perfbench::run(&settings);
    for why in &outcome.failures {
        eprintln!("perfbench: check failed: {why}");
    }
    print!("{}", outcome.render());
    println!("{}", outcome.json());
    if !outcome.correct() {
        eprintln!(
            "perfbench: {} of {} operations failed",
            outcome.failed, outcome.attempted
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
