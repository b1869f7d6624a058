//! `bypassd-lint`: the workspace invariant checker behind
//! `cargo xtask lint`.
//!
//! BypassD's safety story rests on properties the compiler cannot see:
//! the simulator's virtual clock must stay deterministic (bit-identical
//! traces), the lock-light hot paths must be deadlock-free, and every
//! weakened atomic ordering must be justified. This crate enforces them
//! as machine-checked rules with `file:line:col` diagnostics:
//!
//! | rule | property | scope |
//! |------|----------|-------|
//! | R1 | virtual-time determinism (no wall clock / OS randomness) | all scanned files, minus `lint.toml` exemptions |
//! | R2 | lock-order discipline (no acquisition-graph cycles, incl. across calls) | `crates/*/src` |
//! | R3 | atomic-ordering justification (`// ordering:` comments) | `crates/*/src`, non-test code |
//! | R4 | no `.unwrap()` on lock results (poisoning policy) | `crates/*/src`, non-test code |
//! | R5 | determinism taint (no nondeterministic value reaches a fingerprint/deadline sink) | `crates/*/src`, interprocedural |
//!
//! R2 and R5 are *interprocedural*: all scanned library sources are
//! parsed once into a [`syntax`] model, joined by a workspace
//! [`callgraph`], and analyzed with per-function summaries propagated
//! to fixpoint — a wall-clock read three calls away from a
//! `Simulation::spawn_at` deadline is reported at the spawn site with
//! the full chain.
//!
//! Exemptions live in `lint.toml` at the workspace root; every entry
//! carries a mandatory `reason`, so the allowlist doubles as the audit
//! log of every place the rules are deliberately bent. Unused entries
//! are reported (fatal under `--strict`) so the file cannot rot.
//! [`sarif`] renders the findings machine-readably for artifact upload.
//!
//! `syn` is unavailable offline, so the pass runs on a purpose-built
//! lexer ([`lexer`]) plus a light structural model ([`model`]) — see
//! DESIGN.md §11 and §16 for the trade-offs.

pub mod callgraph;
pub mod config;
pub mod diag;
pub mod lexer;
pub mod lockgraph;
pub mod model;
pub mod rules;
pub mod sarif;
pub mod syntax;
pub mod taint;

use std::path::{Path, PathBuf};

use callgraph::CallGraph;
use config::Config;
use diag::Diagnostic;
use lockgraph::LockGraph;
use rules::SourceFile;

/// Outcome of a workspace lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Violations that fail the run.
    pub active: Vec<Diagnostic>,
    /// Diagnostics suppressed by `lint.toml` (entry line attached).
    pub suppressed: Vec<(Diagnostic, usize)>,
    /// Allow entries that never matched anything.
    pub unused_allows: Vec<config::AllowEntry>,
    pub files_scanned: usize,
}

impl LintReport {
    /// True when the workspace is clean.
    pub fn ok(&self) -> bool {
        self.active.is_empty()
    }
}

/// Lints the workspace rooted at `root` (the directory holding
/// `lint.toml` and `Cargo.toml`).
pub fn run_workspace(root: &Path) -> Result<LintReport, String> {
    let cfg = Config::load(root)?;
    let rels = collect_files(root, &cfg)?;

    // Parse every file once; the interprocedural passes share the
    // models through the call graph.
    let mut files: Vec<SourceFile> = Vec::with_capacity(rels.len());
    let mut library: Vec<Option<String>> = Vec::with_capacity(rels.len());
    for rel in &rels {
        let text = std::fs::read_to_string(root.join(rel)).map_err(|e| format!("{rel}: {e}"))?;
        files.push(SourceFile::new(rel, &text));
        library.push(library_crate(rel).map(str::to_string));
    }

    let mut diags: Vec<Diagnostic> = Vec::new();

    // Per-file rules.
    for (i, file) in files.iter().enumerate() {
        if !cfg.is_exempt("R1", &file.path) {
            diags.extend(rules::r1(file));
        }
        if library[i].is_some() {
            if !cfg.is_exempt("R3", &file.path) {
                diags.extend(rules::r3(file));
            }
            if !cfg.is_exempt("R4", &file.path) {
                diags.extend(rules::r4(file));
            }
        }
    }

    // Interprocedural passes share one call graph.
    let graph = CallGraph::build(&files, &library);

    // R2: local guard tracking plus call-graph extension, then the
    // edge allowlist, then cycle detection.
    let mut lock = LockGraph::default();
    for (i, file) in files.iter().enumerate() {
        if let Some(crate_name) = &library[i] {
            if !cfg.is_exempt("R2", &file.path) {
                lock.scan_file(file, crate_name);
            }
        }
    }
    lock.extend_with_calls(&files, &graph);
    let mut r2_used = vec![false; cfg.allow.len()];
    for (i, entry) in cfg.allow.iter().enumerate() {
        if entry.rule == "R2" {
            if let Some(pattern) = &entry.pattern {
                r2_used[i] = lock.allow_edge(pattern, &entry.path);
            }
        }
    }
    diags.extend(lock.cycles());

    // R5: determinism taint. Exempt files still contribute summaries
    // (a bench helper returning wall-clock time must taint its
    // callers); only their own sink reports are suppressed.
    diags.extend(
        taint::TaintPass::new(&files, &graph)
            .run(|fi| library[fi].is_some() && !cfg.is_exempt("R5", &files[fi].path)),
    );

    let mut filtered = diag::filter(diags, &cfg);
    filtered
        .unused_allows
        .retain(|e| !cfg.allow.iter().zip(&r2_used).any(|(o, u)| *u && o == e));

    Ok(LintReport {
        active: filtered.active,
        suppressed: filtered.suppressed,
        unused_allows: filtered.unused_allows,
        files_scanned: files.len(),
    })
}

/// `crates/<name>/src/...` → `<name>`; everything else (tests, benches,
/// examples) is not library code.
fn library_crate(rel: &str) -> Option<&str> {
    let rest = rel.strip_prefix("crates/")?;
    let (name, tail) = rest.split_once('/')?;
    if tail.starts_with("src/") {
        Some(name)
    } else {
        None
    }
}

/// All `.rs` files under the configured scan roots, workspace-relative
/// with `/` separators, sorted for deterministic output.
fn collect_files(root: &Path, cfg: &Config) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for sr in &cfg.scan_roots {
        let dir = root.join(sr);
        if dir.is_dir() {
            visit(&dir, root, cfg, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn visit(dir: &Path, root: &Path, cfg: &Config, out: &mut Vec<String>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let path: PathBuf = entry.path();
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if cfg
            .skip
            .iter()
            .any(|s| format!("/{rel}/").contains(s.as_str()))
        {
            continue;
        }
        if path.is_dir() {
            let name = entry.file_name();
            if name == "target" || name == ".git" {
                continue;
            }
            visit(&path, root, cfg, out)?;
        } else if rel.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_crate_classifies_paths() {
        assert_eq!(library_crate("crates/qos/src/arbiter.rs"), Some("qos"));
        assert_eq!(library_crate("crates/qos/tests/t.rs"), None);
        assert_eq!(library_crate("tests/end_to_end.rs"), None);
        assert_eq!(library_crate("examples/quickstart.rs"), None);
        assert_eq!(library_crate("crates/bench/benches/fig5.rs"), None);
    }
}
