//! Machine-readable exporters: SARIF 2.1.0 and a plain JSON findings
//! array. Hand-rolled (the analyzer is dependency-free by design); the
//! shapes are small enough that string assembly with proper escaping is
//! simpler than a serializer.
//!
//! Stability contract: rule IDs (`R1`..`R5`) and the field names
//! emitted here are part of the tool's interface — CI artifact
//! consumers key on them. Never renumber; R6 is retired and never
//! reused.

use crate::diag::{Diagnostic, RULES};

/// Escapes a string for inclusion in a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders findings as a SARIF 2.1.0 log with one run and one result
/// per finding.
pub fn to_sarif(diags: &[Diagnostic]) -> String {
    let mut rules = String::new();
    for (i, (id, name, desc)) in RULES.iter().enumerate() {
        if i > 0 {
            rules.push(',');
        }
        rules.push_str(&format!(
            r#"{{"id":"{}","name":"{}","shortDescription":{{"text":"{}"}}}}"#,
            esc(id),
            esc(name),
            esc(desc)
        ));
    }

    let mut results = String::new();
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            results.push(',');
        }
        let rule_index = RULES
            .iter()
            .position(|(id, _, _)| *id == d.rule)
            .unwrap_or(0);
        let mut region = format!(r#""startLine":{}"#, d.line.max(1));
        if d.col > 0 {
            region.push_str(&format!(
                r#","startColumn":{},"endColumn":{}"#,
                d.col,
                d.end_col.max(d.col)
            ));
        }
        results.push_str(&format!(
            concat!(
                r#"{{"ruleId":"{}","ruleIndex":{},"level":"error","#,
                r#""message":{{"text":"{}"}},"#,
                r#""locations":[{{"physicalLocation":{{"#,
                r#""artifactLocation":{{"uri":"{}"}},"#,
                r#""region":{{{}}}}}}}]}}"#
            ),
            esc(d.rule),
            rule_index,
            esc(&d.message),
            esc(&d.path),
            region
        ));
    }

    format!(
        concat!(
            r#"{{"$schema":"https://json.schemastore.org/sarif-2.1.0.json","#,
            r#""version":"2.1.0","runs":[{{"tool":{{"driver":{{"#,
            r#""name":"bypassd-lint","version":"2.0.0","#,
            r#""informationUri":"https://example.invalid/bypassd-lint","#,
            r#""rules":[{}]}}}},"results":[{}]}}]}}"#
        ),
        rules, results
    )
}

/// Renders findings as a flat JSON array (one object per finding),
/// the `--json` output for scripting.
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            r#"{{"rule":"{}","path":"{}","line":{},"col":{},"end_col":{},"message":"{}","context":"{}"{}}}"#,
            esc(d.rule),
            esc(&d.path),
            d.line,
            d.col,
            d.end_col,
            esc(&d.message),
            esc(&d.context),
            match &d.edge {
                Some(e) => format!(r#","edge":"{}""#, esc(e)),
                None => String::new(),
            }
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag() -> Diagnostic {
        Diagnostic {
            rule: "R5",
            path: "crates/x/src/lib.rs".to_string(),
            line: 4,
            col: 9,
            end_col: 18,
            message: "taint \"flows\"\ninto sink".to_string(),
            context: "h.write_u64(k)".to_string(),
            edge: None,
        }
    }

    #[test]
    fn sarif_has_schema_rules_and_one_result_per_finding() {
        let s = to_sarif(&[diag(), diag()]);
        assert!(s.contains(r#""version":"2.1.0""#));
        assert!(s.contains(r#""name":"bypassd-lint""#));
        // All five stable rule descriptors present, and no retired one.
        for id in ["R1", "R2", "R3", "R4", "R5"] {
            assert!(s.contains(&format!(r#""id":"{id}""#)), "{id} missing");
        }
        assert!(!s.contains(r#""id":"R6""#));
        assert_eq!(s.matches(r#""ruleId":"R5""#).count(), 2);
        assert!(s.contains(r#""startLine":4,"startColumn":9,"endColumn":18"#));
    }

    #[test]
    fn json_escapes_quotes_and_newlines() {
        let j = to_json(&[diag()]);
        assert!(j.contains(r#"taint \"flows\"\ninto sink"#), "{j}");
        assert!(j.starts_with('[') && j.ends_with(']'));
    }

    #[test]
    fn empty_inputs_are_valid_documents() {
        assert!(to_sarif(&[]).contains(r#""results":[]"#));
        assert_eq!(to_json(&[]), "[]");
    }
}
