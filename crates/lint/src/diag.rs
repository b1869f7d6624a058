//! Diagnostics and allowlist filtering.

use crate::config::{AllowEntry, Config};

/// Stable rule catalog: IDs never change once shipped (SARIF consumers
/// key on them), and a retired ID is never reused (R6 is retired).
/// `(id, name, short description)`.
pub const RULES: [(&str, &str, &str); 5] = [
    (
        "R1",
        "wall-clock-free",
        "No wall clock, sleeps or OS randomness outside the benchmark crate",
    ),
    (
        "R2",
        "lock-order",
        "Lock acquisition order must be acyclic, including across calls",
    ),
    (
        "R3",
        "atomic-ordering-justified",
        "Weak atomic orderings need an `// ordering:` justification comment",
    ),
    (
        "R4",
        "no-lock-unwrap",
        "Lock results must not be `.unwrap()`ed in non-test code",
    ),
    (
        "R5",
        "determinism-taint",
        "Nondeterministic values must not flow into fingerprints, virtual time or deadlines",
    ),
];

/// Metadata for a rule ID, for SARIF `rules` descriptors.
pub fn rule_meta(id: &str) -> Option<(&'static str, &'static str)> {
    RULES
        .iter()
        .find(|(r, _, _)| *r == id)
        .map(|(_, name, desc)| (*name, *desc))
}

/// One lint finding, printable as `path:line:col: [RULE] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub rule: &'static str,
    pub path: String,
    pub line: usize,
    /// 1-based byte column of the offending token (0 = unknown, for
    /// whole-line findings).
    pub col: usize,
    /// 1-based byte column one past the token (== `col` when unknown).
    pub end_col: usize,
    pub message: String,
    /// The offending source line (trimmed), used for allowlist `pattern`
    /// matching and shown under the diagnostic.
    pub context: String,
    /// For R2: the `from -> to` edge label, matched by allow `pattern`.
    pub edge: Option<String>,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.col > 0 {
            writeln!(
                f,
                "{}:{}:{}: [{}] {}",
                self.path, self.line, self.col, self.rule, self.message
            )?;
        } else {
            writeln!(
                f,
                "{}:{}: [{}] {}",
                self.path, self.line, self.rule, self.message
            )?;
        }
        if !self.context.is_empty() {
            write!(f, "    | {}", self.context)?;
        }
        Ok(())
    }
}

/// Result of filtering raw diagnostics through the allowlist.
#[derive(Debug, Default)]
pub struct Filtered {
    /// Diagnostics that survived (these fail the build).
    pub active: Vec<Diagnostic>,
    /// Diagnostics suppressed by an allow entry (reported with `-v`).
    pub suppressed: Vec<(Diagnostic, usize)>,
    /// Allow entries (by lint.toml line) that never matched anything.
    pub unused_allows: Vec<AllowEntry>,
}

/// Does `entry` suppress `d`?
fn matches(entry: &AllowEntry, d: &Diagnostic) -> bool {
    if entry.rule != d.rule {
        return false;
    }
    if !entry.path.is_empty() && !d.path.starts_with(entry.path.as_str()) {
        return false;
    }
    match (&entry.pattern, &d.edge) {
        (Some(p), Some(edge)) => edge.contains(p.as_str()),
        (Some(p), None) => d.context.contains(p.as_str()),
        (None, _) => true,
    }
}

/// Splits `diags` into active and allowlisted sets.
pub fn filter(diags: Vec<Diagnostic>, cfg: &Config) -> Filtered {
    let mut out = Filtered::default();
    let mut used = vec![false; cfg.allow.len()];
    for d in diags {
        match cfg.allow.iter().position(|e| matches(e, &d)) {
            Some(i) => {
                used[i] = true;
                out.suppressed.push((d, cfg.allow[i].line_no));
            }
            None => out.active.push(d),
        }
    }
    out.unused_allows = cfg
        .allow
        .iter()
        .zip(&used)
        .filter(|(_, u)| !**u)
        .map(|(e, _)| e.clone())
        .collect();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: &'static str, path: &str, context: &str) -> Diagnostic {
        Diagnostic {
            rule,
            path: path.to_string(),
            line: 1,
            col: 0,
            end_col: 0,
            message: "m".to_string(),
            context: context.to_string(),
            edge: None,
        }
    }

    #[test]
    fn allow_filters_by_rule_path_and_pattern() {
        let cfg = crate::config::parse(
            r#"
            [[allow]]
            rule = "R1"
            path = "crates/sim"
            pattern = "Instant"
            reason = "test"
            "#,
        )
        .unwrap();
        let diags = vec![
            diag("R1", "crates/sim/src/a.rs", "Instant::now()"),
            diag("R1", "crates/core/src/b.rs", "Instant::now()"),
            diag("R3", "crates/sim/src/a.rs", "Instant::now()"),
        ];
        let f = filter(diags, &cfg);
        assert_eq!(f.suppressed.len(), 1);
        assert_eq!(f.active.len(), 2);
        assert!(f.unused_allows.is_empty());
    }

    #[test]
    fn unused_allows_are_reported() {
        let cfg =
            crate::config::parse("[[allow]]\nrule = \"R4\"\npath = \"nowhere\"\nreason = \"r\"\n")
                .unwrap();
        let f = filter(vec![], &cfg);
        assert_eq!(f.unused_allows.len(), 1);
    }

    #[test]
    fn every_rule_has_stable_metadata() {
        for id in ["R1", "R2", "R3", "R4", "R5"] {
            assert!(rule_meta(id).is_some(), "missing metadata for {id}");
        }
        assert_eq!(rule_meta("R5").unwrap().0, "determinism-taint");
    }

    #[test]
    fn display_includes_column_when_known() {
        let mut d = diag("R5", "crates/x/src/lib.rs", "ctx");
        d.col = 9;
        d.end_col = 12;
        assert!(d.to_string().starts_with("crates/x/src/lib.rs:1:9: [R5]"));
    }
}
