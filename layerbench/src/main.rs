//! `layerbench`: the repository's two-clock benchmark.
//!
//! One command runs a named workload from a seed, checks every output
//! against the benchmark's own flat model, and prints every metric by
//! name with its unit. `--trace 0` repeats the workload untraced and
//! prints the end-to-end metrics; `--trace 1` runs the traced pass and
//! prints the per-layer ledger. The last line of standard output is the
//! result object. See README.md.

use std::process::ExitCode;

mod direct_read;
mod fleet;
mod host;
mod metrics;
mod model;
mod probe;
mod rig;
mod spans;
mod stats;
mod sysrun;
mod tenants_rw;

use metrics::{END_TO_END, PER_LAYER};

/// Overrides that change what the simulator does, besides every
/// `BYPASSD_TRACE*` variable. A measurement taken with any of them set
/// would not compare with a clean baseline.
const OVERRIDES: [&str; 3] = [
    "BYPASSD_FORCE_QOS",
    "BYPASSD_FORCE_ATC",
    "BYPASSD_FLEET_WORKERS",
];

/// Refuses to measure when a simulator override is set.
fn env_guard(vars: impl IntoIterator<Item = (String, String)>) -> Result<(), String> {
    let mut set: Vec<String> = vars
        .into_iter()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("BYPASSD_TRACE") || OVERRIDES.contains(&k.as_str()))
        .collect();
    if set.is_empty() {
        return Ok(());
    }
    set.sort();
    Err(format!(
        "refusing to measure with {} set: these force tracing, QoS, the device ATC or the \
         fleet worker count, so the numbers would not compare with a clean baseline; unset \
         them and rerun",
        set.join(", ")
    ))
}

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value}: want a positive number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: want 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run() -> Result<String, String> {
    let args = parse_args(std::env::args().skip(1))?;
    env_guard(std::env::vars_os().map(|(k, v)| {
        (
            k.to_string_lossy().into_owned(),
            v.to_string_lossy().into_owned(),
        )
    }))?;
    println!("host: {}", host::describe());
    let (seed, seconds) = (args.seed, args.seconds);
    let out = match (args.workload.as_str(), args.trace) {
        ("direct_read", false) => sysrun::untraced(&sysrun::DIRECT_READ, seed, seconds),
        ("direct_read", true) => sysrun::traced(&sysrun::DIRECT_READ, seed, seconds),
        ("tenants_rw", false) => sysrun::untraced(&sysrun::TENANTS_RW, seed, seconds),
        ("tenants_rw", true) => sysrun::traced(&sysrun::TENANTS_RW, seed, seconds),
        ("fleet_k1", false) => fleet::untraced(seed, seconds),
        ("fleet_k1", true) => fleet::traced(seed, seconds),
        (other, _) => Err(format!(
            "unknown workload {other} (direct_read, tenants_rw, fleet_k1)"
        )),
    }?;
    let specs = if args.trace { PER_LAYER } else { END_TO_END };
    print!("{}", out.report);
    print!("{}", out.ledger.table(specs));
    out.ledger
        .result_line(specs, out.attempted, out.failed, !args.trace)
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("layerbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn env_guard_trips_on_every_override() {
        for k in [
            "BYPASSD_TRACE",
            "BYPASSD_TRACE_SAMPLE",
            "BYPASSD_TRACE_RING",
            "BYPASSD_FORCE_QOS",
            "BYPASSD_FORCE_ATC",
            "BYPASSD_FLEET_WORKERS",
        ] {
            let err = env_guard(env(&[("PATH", "/bin"), (k, "0")])).unwrap_err();
            assert!(err.contains(k), "{err}");
        }
        assert!(env_guard(env(&[("PATH", "/bin"), ("BYPASSD_MODEL_CASES", "4")])).is_ok());
        assert!(env_guard(Vec::new()).is_ok());
    }

    #[test]
    fn args_parse_the_driver_form() {
        let argv = "--workload tenants_rw --seed 7 --seconds 20 --trace 1";
        let a = parse_args(argv.split(' ').map(String::from)).unwrap();
        assert_eq!(
            a,
            Args {
                workload: "tenants_rw".into(),
                seed: 7,
                seconds: 20.0,
                trace: true
            }
        );
        for bad in [
            "--seed 1",
            "--workload x --trace 2",
            "--workload x --seconds 0",
            "--bogus 1",
        ] {
            assert!(
                parse_args(bad.split(' ').map(String::from)).is_err(),
                "{bad}"
            );
        }
    }
}
