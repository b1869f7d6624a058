//! Workspace-level tests of the lint engine and the `xtask` binary:
//! the real repository must be clean under the committed `lint.toml`,
//! and the CLI's plain and `--strict` modes must fail for the right
//! reasons (exercised against throwaway mini
//! workspaces under the target temp dir).

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

/// The acceptance gate: a full-workspace run under the committed
/// config has zero active findings and no rotted allow entries.
#[test]
fn workspace_is_clean_under_committed_config() {
    let report = bypassd_lint::run_workspace(&repo_root()).expect("workspace lints");
    assert!(
        report.active.is_empty(),
        "workspace findings: {:#?}",
        report.active
    );
    assert!(
        report.unused_allows.is_empty(),
        "rotted allow entries: {:#?}",
        report.unused_allows
    );
    assert!(
        report.files_scanned > 100,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
}

/// A scratch mini-workspace for CLI-behavior tests. Lives under this
/// crate's target-adjacent temp dir; recreated from scratch per test.
fn scratch(name: &str, lint_toml: &str, lib_rs: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bypassd-lint-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("crates/x/src")).expect("scratch dirs");
    std::fs::write(dir.join("lint.toml"), lint_toml).expect("lint.toml");
    std::fs::write(dir.join("crates/x/src/lib.rs"), lib_rs).expect("lib.rs");
    dir
}

/// Runs the real `xtask` binary against a scratch root. The binary
/// resolves its root from `CARGO_MANIFEST_DIR`, which we clear so it
/// falls back to the working directory.
fn xtask(root: &Path, args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(args)
        .current_dir(root)
        .env_remove("CARGO_MANIFEST_DIR")
        .output()
        .expect("xtask runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

const CLEAN_LIB: &str = "pub fn add(a: u64, b: u64) -> u64 { a + b }\n";

const WALL_CLOCK_LIB: &str =
    "pub fn t() -> u64 { std::time::Instant::now().elapsed().as_nanos() as u64 }\n";

#[test]
fn unused_allow_entry_warns_by_default_and_fails_strict() {
    let toml = r#"
[lint]
scan_roots = ["crates"]

[[allow]]
rule = "R2"
path = "crates/x/"
pattern = "never -> matches"
reason = "entry planted by the workspace_lint test"
"#;
    let root = scratch("unused-allow", toml, CLEAN_LIB);

    let (ok, err) = xtask(&root, &["lint"]);
    assert!(ok, "unused allow must only warn by default:\n{err}");
    assert!(err.contains("never matched"), "{err}");

    let (ok, err) = xtask(&root, &["lint", "--strict"]);
    assert!(!ok, "unused allow must be fatal under --strict:\n{err}");
    assert!(err.contains("never matched"), "{err}");
    assert!(err.contains("--strict"), "{err}");
}

#[test]
fn plain_lint_fails_on_a_planted_r1_read() {
    let root = scratch(
        "planted-r1",
        "[lint]\nscan_roots = [\"crates\"]\n",
        WALL_CLOCK_LIB,
    );
    let (ok, err) = xtask(&root, &["lint"]);
    assert!(!ok, "planted violation must fail:\n{err}");
    assert!(err.contains("[R1]"), "{err}");
}

#[test]
fn sarif_and_json_exports_reflect_the_active_findings() {
    let root = scratch(
        "exports",
        "[lint]\nscan_roots = [\"crates\"]\n",
        WALL_CLOCK_LIB,
    );
    let (ok, err) = xtask(
        &root,
        &["lint", "--sarif", "out.sarif", "--json", "out.json"],
    );
    assert!(!ok, "violations still fail the run:\n{err}");

    let sarif = std::fs::read_to_string(root.join("out.sarif")).expect("sarif written");
    assert!(sarif.contains(r#""name":"bypassd-lint""#), "{sarif}");
    assert!(sarif.contains(r#""ruleId":"R1""#), "{sarif}");
    assert!(sarif.contains(r#""uri":"crates/x/src/lib.rs""#), "{sarif}");

    let json = std::fs::read_to_string(root.join("out.json")).expect("json written");
    assert!(json.contains(r#""rule":"R1""#), "{json}");
}

/// The CI wall-clock budget flag: an absurdly small budget fails even a
/// clean run, a generous one passes.
#[test]
fn budget_flag_gates_analyzer_wall_clock() {
    let root = scratch("budget", "[lint]\nscan_roots = [\"crates\"]\n", CLEAN_LIB);
    let (ok, _) = xtask(&root, &["lint", "--budget-ms", "600000"]);
    assert!(ok);
    // A zero budget must fail any measurable run; use the real repo so
    // the scan takes >0 ms (a two-file scratch rounds down to zero).
    let (ok, err) = xtask(&repo_root(), &["lint", "--budget-ms", "0"]);
    assert!(!ok, "zero budget must fail:\n{err}");
    assert!(err.contains("budget"), "{err}");
}
