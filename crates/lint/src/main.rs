//! The `xtask` binary: correctness-tooling entry points.
//!
//! ```text
//! cargo xtask lint                  # R1–R6 workspace invariant checks
//! cargo xtask lint --strict         # also fail on unused allow entries
//! cargo xtask lint --baseline       # fail only on findings not in lint.baseline
//! cargo xtask lint --write-baseline # accept current findings as the baseline
//! cargo xtask lint --sarif out.sarif --json out.json   # machine-readable exports
//! cargo xtask lint --budget-ms 10000  # fail if the analyzer exceeds the budget
//! cargo xtask loom                  # schedule-perturbation model tests (--cfg loom)
//! cargo xtask miri                  # Miri over the invariant test files (needs nightly+miri)
//! cargo xtask verify                # lint --strict + loom + miri (miri skipped when unavailable)
//! ```
//!
//! `lint` exits non-zero when any rule fires (in `--baseline` mode: any
//! *new* finding); `miri` exits zero with a notice when the Miri
//! component is not installed (CI installs it; the offline dev container
//! cannot), or non-zero with `--strict`.

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strict = args.iter().any(|a| a == "--strict");
    match args.first().map(String::as_str) {
        Some("lint") | None => match LintOpts::parse(&args) {
            Ok(opts) => lint(&opts),
            Err(e) => {
                eprintln!("xtask lint: {e}");
                ExitCode::FAILURE
            }
        },
        Some("loom") => loom(),
        Some("miri") => miri(strict),
        Some("verify") => {
            // The full gate always runs the lint strict (unused allow
            // entries are rot); `--strict` additionally makes a missing
            // Miri component fatal (CI).
            let opts = LintOpts {
                strict: true,
                ..LintOpts::default()
            };
            for step in [lint(&opts), loom(), miri(strict)] {
                if step != ExitCode::SUCCESS {
                    return step;
                }
            }
            eprintln!("xtask verify: all gates passed");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("xtask: unknown subcommand `{other}` (try lint | loom | miri | verify)");
            ExitCode::FAILURE
        }
    }
}

#[derive(Debug, Default)]
struct LintOpts {
    verbose: bool,
    /// Unused allow entries become fatal.
    strict: bool,
    /// Differential mode: fail only on findings absent from `lint.baseline`.
    baseline: bool,
    /// Accept the current findings as the new `lint.baseline`.
    write_baseline: bool,
    sarif: Option<PathBuf>,
    json: Option<PathBuf>,
    /// Fail when the analyzer takes longer than this.
    budget_ms: Option<u64>,
}

impl LintOpts {
    fn parse(args: &[String]) -> Result<LintOpts, String> {
        let mut o = LintOpts::default();
        // Skip the `lint` subcommand word when present (plain
        // `cargo xtask -v` also lands here).
        let skip = usize::from(args.first().map(String::as_str) == Some("lint"));
        let mut args_iter = args.iter().skip(skip);
        while let Some(a) = args_iter.next() {
            match a.as_str() {
                "-v" | "--verbose" => o.verbose = true,
                "--strict" => o.strict = true,
                "--baseline" => o.baseline = true,
                "--write-baseline" => o.write_baseline = true,
                "--sarif" => {
                    o.sarif = Some(PathBuf::from(
                        args_iter.next().ok_or("--sarif needs a path")?,
                    ));
                }
                "--json" => {
                    o.json = Some(PathBuf::from(
                        args_iter.next().ok_or("--json needs a path")?,
                    ));
                }
                "--budget-ms" => {
                    o.budget_ms = Some(
                        args_iter
                            .next()
                            .ok_or("--budget-ms needs a value")?
                            .parse()
                            .map_err(|e| format!("--budget-ms: {e}"))?,
                    );
                }
                other => return Err(format!("unknown lint flag `{other}`")),
            }
        }
        if o.baseline && o.write_baseline {
            return Err("--baseline and --write-baseline are mutually exclusive".to_string());
        }
        Ok(o)
    }
}

/// The workspace root: `CARGO_MANIFEST_DIR/../..` when run via cargo,
/// else the current directory.
fn workspace_root() -> PathBuf {
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => PathBuf::from(dir)
            .join("../..")
            .canonicalize()
            .unwrap_or_else(|_| ".".into()),
        Err(_) => ".".into(),
    }
}

fn lint(opts: &LintOpts) -> ExitCode {
    let root = workspace_root();
    let started = Instant::now();
    let report = match bypassd_lint::run_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed_ms = started.elapsed().as_millis() as u64;

    if opts.verbose {
        for (d, allow_line) in &report.suppressed {
            eprintln!("allowed (lint.toml:{allow_line}): {d}");
        }
    }
    let mut failed = false;
    for entry in &report.unused_allows {
        if opts.strict {
            eprintln!(
                "error: lint.toml:{}: allow entry for {} never matched — remove it \
                 (unused entries are fatal under --strict)",
                entry.line_no, entry.rule
            );
            failed = true;
        } else {
            eprintln!(
                "warning: lint.toml:{}: allow entry for {} never matched — remove it?",
                entry.line_no, entry.rule
            );
        }
    }

    // Machine-readable exports always reflect the full active set, even
    // in baseline mode — the artifact is the complete picture.
    if let Some(path) = &opts.sarif {
        if let Err(e) = std::fs::write(path, bypassd_lint::sarif::to_sarif(&report.active)) {
            eprintln!("xtask lint: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("xtask lint: SARIF written to {}", path.display());
    }
    if let Some(path) = &opts.json {
        if let Err(e) = std::fs::write(path, bypassd_lint::sarif::to_json(&report.active)) {
            eprintln!("xtask lint: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    let baseline_path = root.join("lint.baseline");
    if opts.write_baseline {
        let set = bypassd_lint::baseline::compute(&report.active);
        let n = set.len();
        if let Err(e) = std::fs::write(&baseline_path, bypassd_lint::baseline::render(&set)) {
            eprintln!("xtask lint: writing lint.baseline: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("xtask lint: wrote lint.baseline with {n} fingerprint(s)");
    } else if opts.baseline {
        let set = match std::fs::read_to_string(&baseline_path) {
            Ok(s) => bypassd_lint::baseline::parse(&s),
            Err(_) => {
                eprintln!(
                    "xtask lint: no lint.baseline found — treating every finding as new \
                     (generate one with --write-baseline)"
                );
                Default::default()
            }
        };
        let (new, stale) = bypassd_lint::baseline::diff(&report.active, &set);
        if stale > 0 {
            eprintln!(
                "xtask lint: {stale} stale baseline entr{} no longer match — \
                 regenerate with --write-baseline",
                if stale == 1 { "y" } else { "ies" }
            );
        }
        for d in &new {
            eprintln!("{d}");
        }
        eprintln!(
            "xtask lint: {} files scanned, {} findings ({} new vs baseline, {} allowlisted) in {}ms",
            report.files_scanned,
            report.active.len(),
            new.len(),
            report.suppressed.len(),
            elapsed_ms
        );
        if !new.is_empty() {
            failed = true;
        }
        return finish(failed, elapsed_ms, opts);
    } else {
        for d in &report.active {
            eprintln!("{d}");
        }
    }

    eprintln!(
        "xtask lint: {} files scanned, {} violations, {} allowlisted in {}ms",
        report.files_scanned,
        report.active.len(),
        report.suppressed.len(),
        elapsed_ms
    );
    if !opts.write_baseline && !report.ok() {
        failed = true;
    }
    finish(failed, elapsed_ms, opts)
}

fn finish(mut failed: bool, elapsed_ms: u64, opts: &LintOpts) -> ExitCode {
    if let Some(budget) = opts.budget_ms {
        if elapsed_ms > budget {
            eprintln!(
                "xtask lint: analyzer took {elapsed_ms}ms, over the {budget}ms budget — \
                 keep the pass fast enough to run on every PR"
            );
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Runs the loom model tests with `--cfg loom` appended to RUSTFLAGS.
/// Iteration bounds come from `LOOM_MAX_ITER` (the stand-in's knob).
fn loom() -> ExitCode {
    let mut rustflags = std::env::var("RUSTFLAGS").unwrap_or_default();
    if !rustflags.contains("--cfg loom") {
        rustflags.push_str(" --cfg loom");
    }
    run(
        Command::new(cargo())
            .args([
                "test",
                "-p",
                "bypassd-trace",
                "--test",
                "loom_recorder",
                "-p",
                "bypassd-hw",
                "--test",
                "loom_lru",
            ])
            .env("RUSTFLAGS", rustflags.trim()),
        "loom tests",
    )
}

/// Runs Miri over the two invariant test files with reduced case counts.
/// Skips (successfully) when the component is missing, unless `--strict`.
fn miri(strict: bool) -> ExitCode {
    let available = Command::new(cargo())
        .args(["miri", "--version"])
        .output()
        .is_ok_and(|o| o.status.success());
    if !available {
        if strict {
            eprintln!("xtask miri: cargo-miri not installed (rustup component add miri)");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "xtask miri: cargo-miri not installed; skipping (CI runs it — \
             `rustup +nightly component add miri`)"
        );
        return ExitCode::SUCCESS;
    }
    run(
        Command::new(cargo())
            .args([
                "miri",
                "test",
                "-p",
                "bypassd-bench",
                "--test",
                "proptest_invariants",
                "--test",
                "model_based",
            ])
            // Interleaving exploration is Miri's job here; keep case
            // counts small so the job stays inside the CI budget.
            .env("PROPTEST_CASES", "4")
            .env("BYPASSD_MODEL_CASES", "2"),
        "miri",
    )
}

fn cargo() -> String {
    std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string())
}

fn run(cmd: &mut Command, what: &str) -> ExitCode {
    eprintln!("xtask: running {what}: {cmd:?}");
    match cmd.current_dir(workspace_root()).status() {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(s) => {
            eprintln!("xtask: {what} failed with {s}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask: could not launch {what}: {e}");
            ExitCode::FAILURE
        }
    }
}
