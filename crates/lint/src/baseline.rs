//! Differential baseline mode.
//!
//! `cargo xtask lint --baseline` compares the current findings against
//! a committed `lint.baseline` file and fails only on *new* findings —
//! the ratchet that lets a rule land before every legacy finding is
//! fixed, without letting regressions in.
//!
//! Fingerprints are **line-independent**: FNV-64 over the rule ID, the
//! file path, the trimmed source context and the edge label (for R2).
//! Adding a comment above a finding must not churn the baseline, so the
//! line number is deliberately excluded; identical findings on
//! identical source lines in one file are disambiguated with an
//! occurrence counter.

use std::collections::BTreeSet;

use crate::diag::Diagnostic;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    // Field separator so ("ab","c") != ("a","bc").
    h ^= 0xff;
    h.wrapping_mul(FNV_PRIME)
}

fn fingerprint(d: &Diagnostic, occurrence: usize) -> String {
    let mut h = FNV_OFFSET;
    h = fnv(h, d.rule.as_bytes());
    h = fnv(h, d.path.as_bytes());
    h = fnv(h, d.context.as_bytes());
    h = fnv(h, d.edge.as_deref().unwrap_or("").as_bytes());
    h = fnv(h, occurrence.to_string().as_bytes());
    format!("{h:016x}")
}

/// Fingerprint set of a findings list (occurrence-disambiguated).
pub fn compute(diags: &[Diagnostic]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for d in diags {
        let mut occ = 0usize;
        loop {
            let fp = fingerprint(d, occ);
            if out.insert(fp) {
                break;
            }
            occ += 1;
        }
    }
    out
}

/// Serializes a baseline file: sorted hex fingerprints, one per line,
/// with a header explaining regeneration.
pub fn render(set: &BTreeSet<String>) -> String {
    let mut out = String::from(
        "# bypassd-lint baseline: line-independent fingerprints of known findings.\n\
         # Regenerate with `cargo xtask lint --write-baseline` after fixing or\n\
         # allowlisting findings. CI's `--baseline` mode fails only on entries\n\
         # NOT in this file. Sorted; one FNV-64 hex fingerprint per line.\n",
    );
    for fp in set {
        out.push_str(fp);
        out.push('\n');
    }
    out
}

/// Parses a baseline file (ignores comments and blank lines).
pub fn parse(src: &str) -> BTreeSet<String> {
    src.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

/// Findings not covered by the baseline (the ones that fail the build
/// in `--baseline` mode), plus baseline entries that no longer match
/// anything (stale — reported, and pruned on `--write-baseline`).
pub fn diff(diags: &[Diagnostic], baseline: &BTreeSet<String>) -> (Vec<Diagnostic>, usize) {
    let mut seen_occ: BTreeSet<String> = BTreeSet::new();
    let mut new = Vec::new();
    let mut matched = 0usize;
    for d in diags {
        let mut occ = 0usize;
        let fp = loop {
            let fp = fingerprint(d, occ);
            if seen_occ.insert(fp.clone()) {
                break fp;
            }
            occ += 1;
        };
        if baseline.contains(&fp) {
            matched += 1;
        } else {
            new.push(d.clone());
        }
    }
    let stale = baseline.len().saturating_sub(matched);
    (new, stale)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: &'static str, line: usize, context: &str) -> Diagnostic {
        Diagnostic {
            rule,
            path: "crates/x/src/lib.rs".to_string(),
            line,
            col: 3,
            end_col: 8,
            message: "m".to_string(),
            context: context.to_string(),
            edge: None,
        }
    }

    #[test]
    fn fingerprints_survive_line_shifts() {
        let a = compute(&[diag("R5", 10, "h.write_u64(k)")]);
        let b = compute(&[diag("R5", 99, "h.write_u64(k)")]);
        assert_eq!(a, b, "line number must not churn the baseline");
    }

    #[test]
    fn duplicate_findings_get_distinct_fingerprints() {
        let set = compute(&[diag("R5", 1, "same"), diag("R5", 2, "same")]);
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn diff_reports_only_new_findings_and_counts_stale() {
        let old = vec![diag("R5", 1, "old finding")];
        let baseline = compute(&old);
        let now = vec![diag("R5", 3, "old finding"), diag("R4", 4, "brand new")];
        let (new, stale) = diff(&now, &baseline);
        assert_eq!(new.len(), 1);
        assert_eq!(new[0].rule, "R4");
        assert_eq!(stale, 0);
        let (new2, stale2) = diff(&[], &baseline);
        assert!(new2.is_empty());
        assert_eq!(stale2, 1);
    }

    #[test]
    fn render_parse_roundtrip() {
        let set = compute(&[diag("R1", 1, "Instant::now()"), diag("R2", 2, "edge")]);
        assert_eq!(parse(&render(&set)), set);
    }
}
