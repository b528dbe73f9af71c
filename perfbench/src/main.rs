//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]`
//!
//! Prints every metric as `name = value unit`, then one `context` JSON
//! line, then the result JSON object as the last line. Exits 0 when every
//! response verified, 1 when any job failed or mismatched, 2 on a usage or
//! set-up error (without printing a result).

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::gen::WorkloadKind;
use perfbench::run::{run, RunConfig};
use perfbench::trace::{json_num, json_str};

const USAGE: &str =
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from("perfbench/out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(WorkloadKind::parse(value).ok_or_else(|| {
                    let names: Vec<_> = WorkloadKind::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{value}' (one of {})", names.join(", "))
                })?);
            }
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?);
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunConfig {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for (name, value, unit) in &result.metrics {
        println!("{name} = {value} {unit}");
    }
    let context: Vec<String> = result
        .context
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    println!("{{\"context\":{{{}}}}}", context.join(","));
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        result.correct,
        result.attempted,
        result.failed,
        metrics.join(",")
    );
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
