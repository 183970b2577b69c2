//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints progress and a readable report on standard error and, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

use gsched_perfbench::report::declared;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must lie in (0, 600], got {seconds}"));
    }
    let traced = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        traced,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let outcome = match gsched_perfbench::run(&args.workload, args.seed, args.seconds, args.traced)
    {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for line in &outcome.notes {
        eprintln!("perfbench: {line}");
    }
    let declared = declared(args.traced);
    for (name, unit) in declared {
        let v = outcome.metrics.get(name).copied().unwrap_or(f64::NAN);
        let shown = if v != 0.0 && v.abs() < 1e-3 {
            format!("{v:.3e}")
        } else {
            format!("{v:.6}")
        };
        eprintln!(
            "perfbench: {:<12} {:<28} {shown:>16} {unit}",
            args.workload, name
        );
    }
    eprintln!(
        "perfbench: {:<12} {:<28} {:>14.6} ({} of {} operations failed)",
        args.workload,
        "fail_ratio",
        outcome.fail_ratio(),
        outcome.failures.len(),
        outcome.attempted
    );
    for f in outcome.failures.iter().take(20) {
        eprintln!("perfbench: FAILED {f}");
    }
    match outcome.result_line(declared) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
