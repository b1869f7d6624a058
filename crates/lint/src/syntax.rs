//! The dependency-free Rust syntax model the interprocedural passes
//! walk: call sites (method and path calls with argument spans),
//! statement boundaries inside function bodies, and the per-file set of
//! identifiers bound to unordered collections (`HashMap`/`HashSet`).
//!
//! This is a *syntactic approximation*, not name resolution: calls are
//! keyed by their final identifier, receivers by their last field name,
//! and types by the tokens of their declaration. DESIGN.md §16 spells
//! out the resulting soundness caveats; the `lint.toml` allowlist is
//! the pressure valve for the false positives the approximation buys.

use std::collections::BTreeSet;

use crate::lexer::{Token, TokenKind};
use crate::model::{matching_close, FileModel, Span};

/// One call expression: `name(args)`, `recv.name(args)` or
/// `a::b::name(args)`.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Final identifier of the callee (`lock`, `add_channel`, `new`).
    pub name: String,
    /// Path segments before the name (`Port` for `Port::new`,
    /// `["bypassd_ssd", "ports"]`-style paths keep every segment).
    pub qualifier: Vec<String>,
    /// True for `recv.name(...)` method syntax.
    pub is_method: bool,
    /// Last identifier of the receiver expression for method calls
    /// (`self.tenants.iter()` → `tenants`).
    pub receiver: Option<String>,
    /// Token spans of each top-level argument (half-open, excluding
    /// the delimiting parens/commas). Empty args produce no span.
    pub args: Vec<Span>,
    /// Token index of the callee name.
    pub idx: usize,
    pub line: usize,
    pub col: usize,
}

impl CallSite {
    /// The call rendered as a path, for diagnostics: `Port::new`.
    pub fn display_path(&self) -> String {
        if self.qualifier.is_empty() {
            self.name.clone()
        } else {
            format!("{}::{}", self.qualifier.join("::"), self.name)
        }
    }
}

/// Keywords that look like `ident (` but are not calls.
const NON_CALL_KEYWORDS: [&str; 12] = [
    "if", "while", "match", "for", "return", "fn", "loop", "in", "as", "let", "else", "move",
];

/// Extracts every call site within `span` of the token stream.
pub fn calls_in(toks: &[Token], span: Span) -> Vec<CallSite> {
    let mut out = Vec::new();
    let end = span.end.min(toks.len());
    for i in span.start..end {
        let TokenKind::Ident(name) = &toks[i].kind else {
            continue;
        };
        if NON_CALL_KEYWORDS.contains(&name.as_str()) {
            continue;
        }
        // `fn name(...)` is a definition, not a call.
        if i > 0 && matches!(&toks[i - 1].kind, TokenKind::Ident(kw) if kw == "fn") {
            continue;
        }
        if toks.get(i + 1).map(|t| &t.kind) != Some(&TokenKind::Open('(')) {
            // Allow one turbofish between name and parens:
            // `collect::<Vec<_>>()` — skip `::<...>`.
            if !(is_path_sep(toks, i + 1)
                && toks.get(i + 3).map(|t| &t.kind) == Some(&TokenKind::Punct('<')))
            {
                continue;
            }
            let Some(open) = skip_generic_args(toks, i + 3) else {
                continue;
            };
            if toks.get(open).map(|t| &t.kind) != Some(&TokenKind::Open('(')) {
                continue;
            }
            out.push(build_call(toks, i, name.clone(), open));
            continue;
        }
        out.push(build_call(toks, i, name.clone(), i + 1));
    }
    out
}

fn build_call(toks: &[Token], name_idx: usize, name: String, open: usize) -> CallSite {
    let is_method = name_idx > 0 && toks[name_idx - 1].kind == TokenKind::Punct('.');
    let qualifier = if is_method {
        Vec::new()
    } else {
        path_qualifier(toks, name_idx)
    };
    let receiver = if is_method {
        Some(crate::lockgraph::receiver_name(toks, name_idx))
    } else {
        None
    };
    CallSite {
        name,
        qualifier,
        is_method,
        receiver,
        args: split_args(toks, open),
        idx: name_idx,
        line: toks[name_idx].line,
        col: toks[name_idx].col,
    }
}

/// Walks `::`-separated identifiers backwards from the callee name:
/// `bypassd_ssd::ports::DOORBELL` → `["bypassd_ssd", "ports"]`.
fn path_qualifier(toks: &[Token], name_idx: usize) -> Vec<String> {
    let mut segs = Vec::new();
    let mut i = name_idx;
    while i >= 3
        && toks[i - 1].kind == TokenKind::Punct(':')
        && toks[i - 2].kind == TokenKind::Punct(':')
    {
        match &toks[i - 3].kind {
            TokenKind::Ident(s) => {
                segs.push(s.clone());
                i -= 3;
            }
            // `>::method` after generics — stop, the turbofish head is
            // not a plain segment.
            _ => break,
        }
    }
    segs.reverse();
    segs
}

/// After a `<` at `lt`, returns the index one past the matching `>`.
/// Conservative: gives up (None) after 64 tokens.
fn skip_generic_args(toks: &[Token], lt: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (off, t) in toks.iter().enumerate().skip(lt).take(64) {
        match &t.kind {
            TokenKind::Punct('<') => depth += 1,
            TokenKind::Punct('>') => {
                depth -= 1;
                if depth == 0 {
                    return Some(off + 1);
                }
            }
            _ => {}
        }
    }
    None
}

/// Splits the paren group opening at `open` into top-level argument
/// token spans.
fn split_args(toks: &[Token], open: usize) -> Vec<Span> {
    let close = matching_close(toks, open) - 1; // index of `)`
    let mut out = Vec::new();
    let mut start = open + 1;
    let mut i = open + 1;
    while i < close {
        match &toks[i].kind {
            TokenKind::Open(_) => i = matching_close(toks, i),
            TokenKind::Punct(',') => {
                if i > start {
                    out.push(Span { start, end: i });
                }
                i += 1;
                start = i;
            }
            _ => i += 1,
        }
    }
    if close > start {
        out.push(Span { start, end: close });
    }
    out
}

fn is_path_sep(toks: &[Token], i: usize) -> bool {
    toks.get(i).map(|t| &t.kind) == Some(&TokenKind::Punct(':'))
        && toks.get(i + 1).map(|t| &t.kind) == Some(&TokenKind::Punct(':'))
}

/// One statement-ish region of a function body, used by the taint
/// walker: `let` bindings, `for` loops and expression statements.
#[derive(Debug)]
pub enum Stmt {
    /// `let [mut] name [: ty] = <rhs tokens>;`
    Let { name: String, rhs: Span },
    /// `name = <rhs>;` / `name += <rhs>;` (re-assignment of a local).
    Assign { name: String, rhs: Span },
    /// `for pat in <iter tokens> {` — `names` are the pattern's binding
    /// identifiers (`for (k, v) in ..` binds both).
    For { names: Vec<String>, iter: Span },
    /// Anything else, spanning to the next `;` or block boundary.
    Expr(Span),
}

/// Splits a function body into statements. Nested blocks are walked
/// flat: their statements appear in order, which is all the taint
/// fixpoint needs (it iterates to convergence anyway).
pub fn statements(toks: &[Token], body: Span) -> Vec<Stmt> {
    let mut out = Vec::new();
    let end = body.end.min(toks.len());
    let mut i = body.start + 1; // skip the `{`
    while i < end.saturating_sub(1) {
        match &toks[i].kind {
            TokenKind::Ident(kw) if kw == "let" => {
                let (stmt, next) = parse_let(toks, i, end);
                if let Some(s) = stmt {
                    out.push(s);
                }
                i = next;
            }
            TokenKind::Ident(kw) if kw == "for" => {
                let (stmt, next) = parse_for(toks, i, end);
                if let Some(s) = stmt {
                    out.push(s);
                }
                i = next;
            }
            TokenKind::Ident(name)
                if toks.get(i + 1).map(|t| &t.kind) == Some(&TokenKind::Punct('='))
                    && toks.get(i + 2).map(|t| &t.kind) != Some(&TokenKind::Punct('='))
                    && (i == body.start + 1 || stmt_leading(&toks[i - 1].kind)) =>
            {
                let stop = stmt_end(toks, i + 2, end);
                out.push(Stmt::Assign {
                    name: name.clone(),
                    rhs: Span {
                        start: i + 2,
                        end: stop,
                    },
                });
                i = stop + 1;
            }
            TokenKind::Open('{') => {
                i += 1; // descend into nested blocks
            }
            _ => {
                let stop = stmt_end(toks, i, end);
                out.push(Stmt::Expr(Span {
                    start: i,
                    end: stop,
                }));
                i = stop + 1;
            }
        }
    }
    out
}

/// Can the previous token end a statement (so `x = ...` is a
/// re-assignment statement, not the middle of a larger expression)?
fn stmt_leading(kind: &TokenKind) -> bool {
    matches!(
        kind,
        TokenKind::Punct(';') | TokenKind::Open('{') | TokenKind::Close('}')
    )
}

/// Index of the `;` (or block/bracket boundary) ending the statement
/// starting at `i`, scanning brackets as opaque groups.
fn stmt_end(toks: &[Token], mut i: usize, end: usize) -> usize {
    while i < end {
        match &toks[i].kind {
            TokenKind::Punct(';') => return i,
            TokenKind::Open(_) => i = matching_close(toks, i),
            TokenKind::Close(_) => return i,
            _ => i += 1,
        }
    }
    end
}

fn parse_let(toks: &[Token], let_idx: usize, end: usize) -> (Option<Stmt>, usize) {
    let mut i = let_idx + 1;
    if let Some(TokenKind::Ident(m)) = toks.get(i).map(|t| &t.kind) {
        if m == "mut" {
            i += 1;
        }
    }
    // Pattern: take the first identifier; tuple/struct patterns bind
    // their first name (good enough for a taint over-approximation —
    // `let (a, b) = tainted()` taints `a`; `b` rides along via the
    // whole-expression check at sink sites).
    let name = loop {
        match toks.get(i).map(|t| &t.kind) {
            Some(TokenKind::Ident(n)) => break n.clone(),
            Some(TokenKind::Open(_)) | Some(TokenKind::Punct('&')) => i += 1,
            _ => {
                let stop = stmt_end(toks, let_idx, end);
                return (None, stop + 1);
            }
        }
    };
    // Find the `=` at pattern depth, skipping the `: Type` annotation
    // (types may contain generics but no top-level `=`).
    let mut j = i;
    let mut found = None;
    while j < end {
        match &toks[j].kind {
            TokenKind::Punct('=')
                if toks.get(j + 1).map(|t| &t.kind) != Some(&TokenKind::Punct('=')) =>
            {
                found = Some(j);
                break;
            }
            TokenKind::Punct(';') => break,
            TokenKind::Open(_) => j = matching_close(toks, j),
            _ => j += 1,
        }
    }
    let Some(eq) = found else {
        let stop = stmt_end(toks, let_idx, end);
        return (None, stop + 1);
    };
    let stop = stmt_end(toks, eq + 1, end);
    (
        Some(Stmt::Let {
            name,
            rhs: Span {
                start: eq + 1,
                end: stop,
            },
        }),
        stop + 1,
    )
}

fn parse_for(toks: &[Token], for_idx: usize, end: usize) -> (Option<Stmt>, usize) {
    // `for <pat> in <iter> {` — find `in`, then the loop `{`. Tuple
    // and slice patterns are walked into; an identifier followed by
    // `(`/`{`/`::` names a constructor or path, not a binding.
    let mut i = for_idx + 1;
    let mut names = Vec::new();
    while i < end {
        match &toks[i].kind {
            TokenKind::Ident(kw) if kw == "in" => break,
            TokenKind::Ident(n) => {
                let path_or_ctor = matches!(
                    toks.get(i + 1).map(|t| &t.kind),
                    Some(TokenKind::Open('(' | '{') | TokenKind::Punct(':'))
                );
                if !path_or_ctor && n != "mut" && n != "ref" {
                    names.push(n.clone());
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    if i >= end {
        return (None, for_idx + 1);
    }
    let iter_start = i + 1;
    let mut j = iter_start;
    while j < end {
        match &toks[j].kind {
            TokenKind::Open('{') => break,
            TokenKind::Open(_) => j = matching_close(toks, j),
            _ => j += 1,
        }
    }
    // Continue scanning *inside* the loop body (j + 1).
    let stmt = (!names.is_empty()).then_some(Stmt::For {
        names,
        iter: Span {
            start: iter_start,
            end: j,
        },
    });
    (stmt, j + 1)
}

/// Identifiers bound to unordered collections in this file: local
/// `let x = HashMap::new()` bindings, `x: HashMap<...>` struct fields
/// and annotated locals / parameters. Matched by last-identifier at
/// use sites (`self.tenants.iter()` → `tenants`).
pub fn unordered_collections(model: &FileModel) -> BTreeSet<String> {
    let toks = &model.lexed.tokens;
    let mut out = BTreeSet::new();
    for i in 0..toks.len() {
        let TokenKind::Ident(ty) = &toks[i].kind else {
            continue;
        };
        if ty != "HashMap" && ty != "HashSet" {
            continue;
        }
        // Walk back over the qualifying path (`std::collections::`).
        let mut j = i;
        while j >= 3
            && toks[j - 1].kind == TokenKind::Punct(':')
            && toks[j - 2].kind == TokenKind::Punct(':')
            && matches!(toks[j - 3].kind, TokenKind::Ident(_))
        {
            j -= 3;
        }
        if j == 0 {
            continue;
        }
        match &toks[j - 1].kind {
            // `name: HashMap<...>` — field or annotated binding.
            TokenKind::Punct(':') => {
                if let Some(TokenKind::Ident(name)) = toks.get(j.wrapping_sub(2)).map(|t| &t.kind) {
                    out.insert(name.clone());
                }
            }
            // `name = HashMap::new()` / `= HashMap::with_capacity(..)`.
            TokenKind::Punct('=') => {
                if let Some(TokenKind::Ident(name)) = toks.get(j.wrapping_sub(2)).map(|t| &t.kind) {
                    out.insert(name.clone());
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::model::FileModel;

    fn first_fn(src: &str) -> (FileModel, Span) {
        let m = FileModel::build(lex(src));
        let body = m.functions[0].body;
        (m, body)
    }

    #[test]
    fn extracts_method_and_path_calls_with_args() {
        let (m, body) = first_fn(
            "fn f(&self) { self.tenants.iter(); Port::new(\"x\", Nanos(9)); go(a, b(c), d); }",
        );
        let calls = calls_in(&m.lexed.tokens, body);
        let names: Vec<&str> = calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["iter", "new", "Nanos", "go", "b"]);
        let iter = &calls[0];
        assert!(iter.is_method);
        assert_eq!(iter.receiver.as_deref(), Some("tenants"));
        let new = &calls[1];
        assert_eq!(new.qualifier, vec!["Port".to_string()]);
        assert_eq!(new.args.len(), 2);
        let go = &calls[3];
        assert_eq!(go.args.len(), 3);
    }

    #[test]
    fn turbofish_calls_are_still_calls() {
        let (m, body) = first_fn("fn f(v: Vec<u8>) { let s = v.iter().collect::<Vec<_>>(); }");
        let calls = calls_in(&m.lexed.tokens, body);
        assert!(calls.iter().any(|c| c.name == "collect"));
    }

    #[test]
    fn statements_find_let_for_and_assign() {
        let (m, body) = first_fn(
            "fn f(&self) { let mut ks = self.m.keys().collect(); ks.sort(); for k in ks { use_(k); } total = 9; }",
        );
        let stmts = statements(&m.lexed.tokens, body);
        assert!(matches!(&stmts[0], Stmt::Let { name, .. } if name == "ks"));
        assert!(matches!(&stmts[1], Stmt::Expr(_)));
        assert!(stmts
            .iter()
            .any(|s| matches!(s, Stmt::For { names, .. } if names == &["k"])));
        assert!(stmts
            .iter()
            .any(|s| matches!(s, Stmt::Assign { name, .. } if name == "total")));
    }

    #[test]
    fn for_patterns_bind_every_identifier() {
        let (m, body) = first_fn(
            "fn f(&self) { for (k, mut v) in m.iter() {} for &(a, Some(ref b)) in xs {} for Foo::Bar { c } in ys {} }",
        );
        let names: Vec<Vec<String>> = statements(&m.lexed.tokens, body)
            .into_iter()
            .filter_map(|s| match s {
                Stmt::For { names, .. } => Some(names),
                _ => None,
            })
            .collect();
        assert_eq!(names, vec![vec!["k", "v"], vec!["a", "b"], vec!["c"]]);
    }

    #[test]
    fn let_with_type_annotation_takes_rhs_after_eq() {
        let (m, body) =
            first_fn("fn f(&self) { let keys: Vec<u64> = self.blocks.keys().copied().collect(); }");
        let stmts = statements(&m.lexed.tokens, body);
        let Stmt::Let { name, rhs } = &stmts[0] else {
            panic!("expected let: {stmts:?}");
        };
        assert_eq!(name, "keys");
        // RHS must start at `self`, not inside the type.
        assert!(
            matches!(&m.lexed.tokens[rhs.start].kind, TokenKind::Ident(s) if s == "self"),
            "{:?}",
            m.lexed.tokens[rhs.start]
        );
    }

    #[test]
    fn unordered_collections_sees_fields_and_lets() {
        let src = "struct S { tenants: HashMap<u32, T>, names: std::collections::HashSet<String>, v: Vec<u8> }\n\
                   fn f() { let local = HashMap::new(); let fine = BTreeMap::new(); }";
        let m = FileModel::build(lex(src));
        let set = unordered_collections(&m);
        assert!(set.contains("tenants"));
        assert!(set.contains("names"));
        assert!(set.contains("local"));
        assert!(!set.contains("v"));
        assert!(!set.contains("fine"));
    }
}
