//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace 1` the per-layer ones). The line
//! before it is a JSON report of the raw host figures, the modeled-stat
//! digest and the host stamp. A silently wrong answer ends the run with
//! exit code 1 and no result line.

use pimecc_perfbench::measure::{self, Metric};
use pimecc_perfbench::workload::Kind;
use std::process::ExitCode;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = value("--workload")?;
    let kind = Kind::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed wants an unsigned integer".to_string())?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds wants a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, got '{other}'")),
    };
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn host_stamp() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown".into());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!("{{\"nproc\": {cores}, \"cpu\": \"{cpu}\"}}")
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <mixed|longtail|fault_storm|partitioned> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match measure::run(args.kind, args.seed, args.seconds, args.trace) {
        Ok(report) => {
            println!(
                "{{\"report\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"modeled_digest\": \"{:016x}\", \"host\": {}, \"raw\": {}}}}}",
                args.kind.name(),
                args.seed,
                u8::from(args.trace),
                report.digest,
                host_stamp(),
                json_metrics(&report.raw),
            );
            println!(
                "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                report.attempted,
                report.failed,
                json_metrics(&report.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.kind.name());
            ExitCode::from(1)
        }
    }
}
