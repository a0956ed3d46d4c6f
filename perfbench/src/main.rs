//! The repository benchmark: three closed-loop workloads driven through
//! the program's public entry points, every output checked against the
//! serial interpreter, one JSON result line on stdout.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-cold --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing.
//! `--trace 1` runs the same workload and seed while recording spans
//! around calls into each layer from this package's own code, and
//! reports the per-layer metrics; the spans are written as a Chrome
//! trace. `perfbench/README.md` documents every metric.

mod dse;
mod report;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Outcome;

/// The workloads, by the names `BENCHMARK.json` lists.
pub const WORKLOADS: [&str; 3] = ["serve-cold", "serve-warm", "dse-sweep"];

/// Validated command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement window.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!(
                        "unknown workload '{value}' (known: {})",
                        WORKLOADS.join(", ")
                    ));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => {
                let s = num()?;
                if s == 0 || s > 600 {
                    return Err(format!("--seconds {s} is outside 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Where result files, Chrome traces and daemon sockets go: `out/`
/// beside this package's manifest. It is also the working directory,
/// so a socket path too long for `bind` can be given relative to it.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out = out_dir();
    if let Err(e) = std::fs::create_dir_all(&out).and_then(|()| std::env::set_current_dir(&out)) {
        eprintln!("perfbench: cannot use {}: {e}", out.display());
        return ExitCode::from(1);
    }
    let host = report::Host::probe();
    println!("host: {}", host.to_json());

    let outcome: Outcome = match args.workload.as_str() {
        "serve-cold" => serve::run_cold(&args, &out),
        "serve-warm" => serve::run_warm(&args, &out),
        _ => dse::run(&args, &host, &out),
    };
    match outcome.finish(&args, &host, &out) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload dse-sweep --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "dse-sweep".into(),
                seed: 7,
                seconds: 12,
                trace: true
            }
        );
    }

    #[test]
    fn refuses_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1",
            "--seed 1",
            "--workload serve-cold --trace 2",
            "--workload serve-cold --seconds 0",
            "--workload serve-cold --seed x",
            "--workload serve-cold --bogus 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
