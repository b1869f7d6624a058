//! R6 — fleet port contract.
//!
//! Cross-lane traffic is declared up front: `Topology::add_channel(src,
//! dst, port, reaction)` binds a channel to a `Port`, and the port's
//! `lookahead` is what lets the Chandy–Misra scheduler promise
//! conservative null messages (DESIGN.md §14). That promise is only as
//! good as the declared lookahead — an inline `Port::new("x", Nanos(1))`
//! buried in lane-wiring code is an unreviewed timing contract.
//!
//! The rule: library code declares ports as constants in a `ports`
//! module (`crates/<c>/src/ports.rs`), and every `add_channel` call
//! references one of those constants. Two findings:
//!
//! * **inline port** — `Port::new(...)` anywhere outside a `ports.rs`
//!   file (and outside `crates/sim`, which defines the type itself).
//! * **undeclared channel port** — an `add_channel(...)` whose port
//!   argument does not reference a `SCREAMING_CASE` port constant
//!   (e.g. a runtime-built `Port` passed through a variable).
//!
//! Test code is exempt: fixtures wire ad-hoc topologies on purpose.

use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::model::Span;
use crate::rules::SourceFile;
use crate::syntax::{self, CallSite};

/// Files allowed to construct `Port` values directly.
fn may_define_ports(path: &str) -> bool {
    path.ends_with("/ports.rs") || path.starts_with("crates/sim/")
}

/// Does the token span reference a `SCREAMING_CASE` constant (a
/// declared port like `ports::DOORBELL` or an imported `PRESSURE`)?
fn references_const(file: &SourceFile, span: Span) -> bool {
    let toks = &file.model.lexed.tokens;
    (span.start..span.end.min(toks.len())).any(|i| match &toks[i].kind {
        TokenKind::Ident(s) => {
            s.len() >= 2
                && s.chars().any(|c| c.is_ascii_uppercase())
                && s.chars()
                    .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
        }
        _ => false,
    })
}

/// Runs the port-contract check over one library file.
pub fn r6(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if may_define_ports(&file.path) {
        return out;
    }
    let toks = &file.model.lexed.tokens;
    let calls = syntax::calls_in(
        toks,
        Span {
            start: 0,
            end: toks.len(),
        },
    );
    for call in &calls {
        if file.model.in_test_code(call.idx) {
            continue;
        }
        match call.name.as_str() {
            "new" if call.qualifier.last().map(String::as_str) == Some("Port") => {
                out.push(inline_port_diag(file, call));
            }
            "add_channel" if call.args.len() >= 3 => {
                let port_arg = call.args[2];
                // An inline `Port::new` in the argument is already
                // reported above; only flag opaque non-constant args.
                let inline = syntax::calls_in(toks, port_arg).iter().any(|c| {
                    c.name == "new" && c.qualifier.last().map(String::as_str) == Some("Port")
                });
                if !inline && !references_const(file, port_arg) {
                    out.push(
                        file.diag(
                            "R6",
                            call.line,
                            call.col,
                            call.col + call.name.len(),
                            "channel declared with an undeclared port: the third \
                         argument of `add_channel` must reference a `ports` \
                         module constant (e.g. `ssd::ports::DOORBELL`) so the \
                         channel's lookahead promise is a reviewed, static \
                         contract"
                                .to_string(),
                            None,
                        ),
                    );
                }
            }
            _ => {}
        }
    }
    out
}

fn inline_port_diag(file: &SourceFile, call: &CallSite) -> Diagnostic {
    file.diag(
        "R6",
        call.line,
        call.col,
        call.col + call.name.len(),
        "inline `Port::new` outside a `ports` module: declare the port as a \
         constant in this crate's `ports.rs` so its name and lookahead are \
         auditable; conservative-lookahead scheduling depends on these values \
         being reviewed in one place"
            .to_string(),
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Diagnostic> {
        r6(&SourceFile::new(path, src))
    }

    #[test]
    fn inline_port_new_is_flagged() {
        let d = run(
            "crates/x/src/wiring.rs",
            "fn wire(t: &mut Topology) { t.add_channel(a, b, Port::new(\"x\", Nanos(345)), None); }",
        );
        assert_eq!(d.len(), 1, "{d:#?}");
        assert_eq!(d[0].rule, "R6");
        assert!(d[0].message.contains("inline `Port::new`"));
    }

    #[test]
    fn ports_module_and_sim_crate_may_define_ports() {
        let src = "pub const DOORBELL: Port = Port::new(\"nvme.doorbell\", PCIE_RTT);";
        assert!(run("crates/x/src/ports.rs", src).is_empty());
        assert!(run("crates/sim/src/port.rs", src).is_empty());
    }

    #[test]
    fn declared_constant_port_is_clean() {
        let d = run(
            "crates/x/src/wiring.rs",
            "fn wire(t: &mut Topology) { t.add_channel(a, b, ssd::ports::DOORBELL, None); }",
        );
        assert_eq!(d, vec![]);
    }

    #[test]
    fn opaque_port_variable_is_flagged() {
        let d = run(
            "crates/x/src/wiring.rs",
            "fn wire(t: &mut Topology, p: Port) { t.add_channel(a, b, p, None); }",
        );
        assert_eq!(d.len(), 1, "{d:#?}");
        assert!(d[0].message.contains("undeclared port"));
    }

    #[test]
    fn test_code_is_exempt() {
        let d = run(
            "crates/x/src/wiring.rs",
            "#[cfg(test)] mod t { fn wire(t: &mut Topology) { t.add_channel(a, b, Port::new(\"x\", Nanos(1)), None); } }",
        );
        assert_eq!(d, vec![]);
    }
}
