//! R5 — interprocedural determinism taint.
//!
//! The repo's load-bearing contract is bit-identical virtual-time
//! results (fleet fingerprints, campaign reports, trace times). The
//! PR 4 lexer could flag a literal `Instant::now`, but not a wall-clock
//! value laundered through three function calls, nor a `HashMap`
//! iteration whose order leaks into an FNV fingerprint. This pass can:
//!
//! * **Sources** — wall clock (`Instant::now`, `SystemTime`), OS
//!   randomness (`thread_rng`), thread identity (`thread::current`),
//!   pointer-as-integer casts (`.as_ptr() as usize`), and iteration
//!   over unordered collections (`HashMap`/`HashSet` `.iter/keys/
//!   values/drain`, `for _ in &map`).
//! * **Propagation** — a per-function *summary* (`returns_taint`) is
//!   computed to fixpoint over the workspace call graph: a function is
//!   tainted when its body produces a source value that is never
//!   sanitized, or when it calls a tainted function. Within a body,
//!   taint flows through `let`/assignment/`for` bindings.
//! * **Sanitizers** — sorting a binding (`keys.sort_unstable()`)
//!   clears its taint: an ordered drain of an unordered map is exactly
//!   the blessed idiom.
//! * **Sinks** — FNV fingerprint folds (`write_u64`, `absorb`,
//!   `fnv_fold`), virtual-time construction (`Nanos(expr)`),
//!   simulation deadlines (`spawn_at`), and the trace `virtual_end_ns`
//!   field. A tainted value reaching a sink argument is reported at
//!   the sink's exact line:col with the cross-function chain.
//!
//! Soundness caveats of the syntax-level approximation (no type
//! inference, name-keyed call resolution) are catalogued in
//! DESIGN.md §16; false positives are allowlisted in `lint.toml` with
//! reasons (e.g. commutative folds over unordered iterators).

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{CallGraph, FnId};
use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::model::Span;
use crate::rules::SourceFile;
use crate::syntax::{self, CallSite, Stmt};

/// Why a value is nondeterministic.
#[derive(Debug, Clone)]
struct Origin {
    /// Human chain: "iterates unordered `HashMap` `tenants`" or
    /// "calls tainted `active_weight` (crates/qos/src/arbiter.rs:152)
    /// → ...".
    why: String,
}

/// One direct source occurrence in a function body.
#[derive(Debug)]
struct SourceHit {
    /// Token index of the source expression.
    idx: usize,
    why: String,
}

/// Sanitizing method names: sorting imposes a deterministic order.
const SANITIZERS: [&str; 6] = [
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
];

/// Unordered-iteration method names.
const UNORDERED_ITERS: [&str; 8] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
    "retain",
];

/// Fingerprint-fold sinks: a tainted argument makes the digest
/// order-dependent.
const HASH_SINKS: [&str; 3] = ["write_u64", "absorb", "fnv_fold"];

/// The workspace taint pass.
pub struct TaintPass<'w> {
    files: &'w [SourceFile],
    graph: &'w CallGraph,
    /// Per-file unordered-collection ident sets.
    unordered: Vec<BTreeSet<String>>,
    /// Per-function summaries (None = not tainted).
    summaries: Vec<Option<Origin>>,
}

impl<'w> TaintPass<'w> {
    pub fn new(files: &'w [SourceFile], graph: &'w CallGraph) -> Self {
        let unordered = files
            .iter()
            .map(|f| syntax::unordered_collections(&f.model))
            .collect();
        TaintPass {
            files,
            graph,
            unordered,
            summaries: vec![None; graph.fns.len()],
        }
    }

    /// Computes summaries to fixpoint, then reports every tainted flow
    /// into a sink. `report_file` gates which files may *emit*
    /// diagnostics (exempt paths still contribute summaries).
    pub fn run(mut self, report_file: impl Fn(usize) -> bool) -> Vec<Diagnostic> {
        // Seed + propagate summaries until stable. Each round re-runs
        // the local analysis because callee taint can create new local
        // taint. Bounded like the call-graph fixpoint driver.
        for _ in 0..64 {
            let mut changed = false;
            for id in 0..self.graph.fns.len() {
                if self.summaries[id].is_some() || self.graph.fns[id].in_test {
                    continue;
                }
                if let Some(origin) = self.function_taint(id) {
                    self.summaries[id] = Some(origin);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        let mut out = Vec::new();
        for id in 0..self.graph.fns.len() {
            let node = &self.graph.fns[id];
            if node.in_test || !report_file(node.file) {
                continue;
            }
            self.report_sinks(id, &mut out);
        }
        out.sort_by(|a, b| (&a.path, a.line, a.col).cmp(&(&b.path, b.line, b.col)));
        out
    }

    /// Is this call site tainted per current summaries? Returns the
    /// chain description.
    fn call_taint(&self, call: &CallSite) -> Option<String> {
        for &callee in self.graph.resolve(call) {
            if let Some(origin) = &self.summaries[callee] {
                let callee_node = &self.graph.fns[callee];
                let file = &self.files[callee_node.file];
                return Some(format!(
                    "calls tainted `{}` ({}:{}): {}",
                    call.name, file.path, callee_node.line, origin.why
                ));
            }
        }
        None
    }

    /// Direct sources in a function body, with token indices.
    fn direct_sources(&self, id: FnId) -> Vec<SourceHit> {
        let node = &self.graph.fns[id];
        let file = &self.files[node.file];
        let toks = &file.model.lexed.tokens;
        let unordered = &self.unordered[node.file];
        let mut out = Vec::new();

        for call in &node.calls {
            if call.is_method && UNORDERED_ITERS.contains(&call.name.as_str()) {
                if let Some(recv) = &call.receiver {
                    if unordered.contains(recv) {
                        out.push(SourceHit {
                            idx: call.idx,
                            why: format!(
                                "iterates unordered `HashMap`/`HashSet` `{recv}` \
                                 (`.{}()` order varies run to run)",
                                call.name
                            ),
                        });
                    }
                }
            }
            match call.name.as_str() {
                "now"
                    if call.qualifier.last().map(String::as_str) == Some("Instant")
                        || call.qualifier.last().map(String::as_str) == Some("SystemTime") =>
                {
                    out.push(SourceHit {
                        idx: call.idx,
                        why: format!("reads the wall clock (`{}`)", call.display_path()),
                    });
                }
                "thread_rng" => out.push(SourceHit {
                    idx: call.idx,
                    why: "uses OS-seeded `thread_rng` randomness".to_string(),
                }),
                "current" if call.qualifier.last().map(String::as_str) == Some("thread") => {
                    out.push(SourceHit {
                        idx: call.idx,
                        why: "depends on thread identity (`thread::current`)".to_string(),
                    });
                }
                // `.as_ptr() as usize` — address-dependent value.
                "as_ptr" | "as_mut_ptr" => {
                    let after = crate::model::matching_close(toks, call.idx + 1);
                    if matches!(toks.get(after).map(|t| &t.kind),
                                Some(TokenKind::Ident(kw)) if kw == "as")
                    {
                        out.push(SourceHit {
                            idx: call.idx,
                            why: format!(
                                "casts a pointer to an integer (`.{}() as ...`), \
                                 which leaks ASLR-random addresses",
                                call.name
                            ),
                        });
                    }
                }
                _ => {}
            }
        }

        // `for x in &map` / `for x in map` over an unordered binding.
        for stmt in syntax::statements(toks, node.body) {
            if let Stmt::For { iter, .. } = stmt {
                if let Some((idx, recv)) = last_ident(toks, iter) {
                    // Only a *bare* receiver (`map`, `&self.map`): an
                    // iterator chain ends in a call and is handled via
                    // the method-source rules above.
                    if unordered.contains(&recv)
                        && toks.get(idx + 1).map(|t| &t.kind) != Some(&TokenKind::Open('('))
                    {
                        out.push(SourceHit {
                            idx,
                            why: format!(
                                "iterates unordered `HashMap`/`HashSet` `{recv}` \
                                 (`for` order varies run to run)"
                            ),
                        });
                    }
                }
            }
        }
        out
    }

    /// Local dataflow: which bindings end the function tainted, and is
    /// there "loose" (unbound) taint — a source or tainted call in
    /// expression position?
    fn local_flow(&self, id: FnId) -> LocalFlow {
        let node = &self.graph.fns[id];
        let file = &self.files[node.file];
        let toks = &file.model.lexed.tokens;
        let sources = self.direct_sources(id);
        let stmts = syntax::statements(toks, node.body);

        let mut tainted: BTreeMap<String, Origin> = BTreeMap::new();
        let mut sanitized: BTreeSet<String> = BTreeSet::new();
        let mut loose: Option<Origin> = None;

        let expr_taint = |span: Span,
                          tainted: &BTreeMap<String, Origin>,
                          sanitized: &BTreeSet<String>|
         -> Option<Origin> {
            // Direct source inside the expression?
            for s in &sources {
                if span.contains(s.idx) {
                    return Some(Origin { why: s.why.clone() });
                }
            }
            // Call to a tainted function?
            for call in &node.calls {
                if span.contains(call.idx) {
                    if let Some(why) = self.call_taint(call) {
                        return Some(Origin { why });
                    }
                }
            }
            // A tainted ident?
            for tok in &toks[span.start..span.end.min(toks.len())] {
                if let TokenKind::Ident(name) = &tok.kind {
                    if sanitized.contains(name) {
                        continue;
                    }
                    if let Some(o) = tainted.get(name) {
                        return Some(Origin {
                            why: format!("via local `{name}`: {}", o.why),
                        });
                    }
                }
            }
            None
        };

        // Two ordered passes: the second picks up defs that depend on
        // later statements (loop-carried flows).
        for _ in 0..2 {
            for stmt in &stmts {
                match stmt {
                    Stmt::Let { name, rhs } | Stmt::Assign { name, rhs } => {
                        if let Some(o) = expr_taint(*rhs, &tainted, &sanitized) {
                            if !sanitized.contains(name) {
                                tainted.entry(name.clone()).or_insert(o);
                            }
                        }
                    }
                    Stmt::For { names, iter } => {
                        if let Some(o) = expr_taint(*iter, &tainted, &sanitized) {
                            for name in names {
                                if !sanitized.contains(name) {
                                    tainted.entry(name.clone()).or_insert_with(|| o.clone());
                                }
                            }
                        }
                    }
                    Stmt::Expr(span) => {
                        // Sanitizer? `x.sort_unstable();`
                        let mut handled = false;
                        for call in &node.calls {
                            if span.contains(call.idx)
                                && call.is_method
                                && SANITIZERS.contains(&call.name.as_str())
                            {
                                if let Some(recv) = &call.receiver {
                                    tainted.remove(recv);
                                    sanitized.insert(recv.clone());
                                    handled = true;
                                }
                            }
                        }
                        if handled {
                            continue;
                        }
                        if loose.is_none() {
                            loose = expr_taint(*span, &tainted, &sanitized);
                        }
                    }
                }
            }
        }

        LocalFlow { tainted, loose }
    }

    /// Summary: does the function produce a nondeterministic value?
    fn function_taint(&self, id: FnId) -> Option<Origin> {
        let flow = self.local_flow(id);
        if let Some(loose) = flow.loose {
            return Some(loose);
        }
        flow.tainted.into_values().next()
    }

    /// Reports tainted values reaching sink arguments in function `id`.
    fn report_sinks(&self, id: FnId, out: &mut Vec<Diagnostic>) {
        let node = &self.graph.fns[id];
        let file = &self.files[node.file];
        let toks = &file.model.lexed.tokens;
        let flow = self.local_flow(id);
        let sources = self.direct_sources(id);

        let arg_taint = |span: Span| -> Option<String> {
            for s in &sources {
                if span.contains(s.idx) {
                    return Some(s.why.clone());
                }
            }
            for call in &node.calls {
                if span.contains(call.idx) && call.idx > span.start {
                    if let Some(why) = self.call_taint(call) {
                        return Some(why);
                    }
                }
            }
            for tok in &toks[span.start..span.end.min(toks.len())] {
                if let TokenKind::Ident(name) = &tok.kind {
                    if let Some(o) = flow.tainted.get(name) {
                        return Some(format!("via local `{name}`: {}", o.why));
                    }
                }
            }
            None
        };

        for call in &node.calls {
            let sink_desc = match call.name.as_str() {
                n if HASH_SINKS.contains(&n) => Some("an FNV fingerprint fold"),
                "Nanos" if !call.is_method => Some("a virtual-time `Nanos` value"),
                "spawn_at" | "schedule_hop" => Some("a simulation deadline"),
                _ => None,
            };
            let Some(sink_desc) = sink_desc else { continue };
            // For `spawn_at(at, ...)` only the deadline argument is a
            // sink; for the rest, any argument.
            let args: &[Span] = match call.name.as_str() {
                "spawn_at" | "schedule_hop" => &call.args[..call.args.len().min(1)],
                _ => &call.args,
            };
            for arg in args {
                if let Some(why) = arg_taint(*arg) {
                    out.push(Diagnostic {
                        rule: "R5",
                        path: file.path.clone(),
                        line: call.line,
                        col: call.col,
                        end_col: call.col + call.name.len(),
                        message: format!(
                            "nondeterministic value flows into {sink_desc} via \
                             `{}`: {} — results would differ run to run; derive the \
                             value from virtual time / seeded Rng, or impose an \
                             order (sort, BTreeMap) before it reaches the sink",
                            call.display_path(),
                            why
                        ),
                        context: file.context(call.line),
                        edge: None,
                    });
                }
            }
        }

        // Field sink: `virtual_end_ns: <expr>` / `virtual_end_ns = <expr>`.
        for i in node.body.start..node.body.end.min(toks.len()) {
            let TokenKind::Ident(name) = &toks[i].kind else {
                continue;
            };
            if name != "virtual_end_ns" {
                continue;
            }
            let is_field = matches!(toks.get(i + 1).map(|t| &t.kind),
                    Some(TokenKind::Punct(':')) if toks.get(i + 2).map(|t| &t.kind) != Some(&TokenKind::Punct(':')))
                || matches!(toks.get(i + 1).map(|t| &t.kind),
                    Some(TokenKind::Punct('=')) if toks.get(i + 2).map(|t| &t.kind) != Some(&TokenKind::Punct('=')));
            if !is_field {
                continue;
            }
            let stop = field_expr_end(toks, i + 2, node.body.end);
            if let Some(why) = arg_taint(Span {
                start: i + 2,
                end: stop,
            }) {
                out.push(Diagnostic {
                    rule: "R5",
                    path: file.path.clone(),
                    line: toks[i].line,
                    col: toks[i].col,
                    end_col: toks[i].col + name.len(),
                    message: format!(
                        "nondeterministic value assigned to trace field \
                         `virtual_end_ns`: {why} — trace bit-identity requires \
                         virtual-time-derived stamps only"
                    ),
                    context: file.context(toks[i].line),
                    edge: None,
                });
            }
        }
    }
}

struct LocalFlow {
    tainted: BTreeMap<String, Origin>,
    loose: Option<Origin>,
}

/// Last identifier token in a span (for `for x in &self.map`).
fn last_ident(toks: &[crate::lexer::Token], span: Span) -> Option<(usize, String)> {
    (span.start..span.end.min(toks.len()))
        .rev()
        .find_map(|i| match &toks[i].kind {
            TokenKind::Ident(s) => Some((i, s.clone())),
            _ => None,
        })
}

/// End of a struct-literal field or assignment expression: the next
/// top-level `,`, `;` or `}`.
fn field_expr_end(toks: &[crate::lexer::Token], mut i: usize, end: usize) -> usize {
    while i < end.min(toks.len()) {
        match &toks[i].kind {
            TokenKind::Punct(',') | TokenKind::Punct(';') => return i,
            TokenKind::Open(_) => i = crate::model::matching_close(toks, i),
            TokenKind::Close(_) => return i,
            _ => i += 1,
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_taint(srcs: &[(&str, &str)]) -> Vec<Diagnostic> {
        let files: Vec<SourceFile> = srcs.iter().map(|(p, s)| SourceFile::new(p, s)).collect();
        let lib: Vec<Option<String>> = (0..files.len()).map(|_| Some("x".to_string())).collect();
        let graph = CallGraph::build(&files, &lib);
        TaintPass::new(&files, &graph).run(|_| true)
    }

    #[test]
    fn direct_map_iteration_into_fingerprint_fold() {
        let d = run_taint(&[(
            "crates/x/src/lib.rs",
            "struct S { m: HashMap<u64, u64> }\n\
             impl S {\n\
               fn fp(&self, h: &mut Fnv64) {\n\
                 for k in self.m.keys() { h.write_u64(*k); }\n\
               }\n\
             }",
        )]);
        assert_eq!(d.len(), 1, "{d:#?}");
        assert_eq!(d[0].rule, "R5");
        assert_eq!(d[0].line, 4);
        assert!(d[0].message.contains("unordered"), "{}", d[0].message);
    }

    #[test]
    fn sorted_drain_is_sanitized() {
        let d = run_taint(&[(
            "crates/x/src/lib.rs",
            "struct S { m: HashMap<u64, u64> }\n\
             impl S {\n\
               fn fp(&self, h: &mut Fnv64) {\n\
                 let mut keys: Vec<u64> = self.m.keys().copied().collect();\n\
                 keys.sort_unstable();\n\
                 for k in keys { h.write_u64(k); }\n\
               }\n\
             }",
        )]);
        assert_eq!(d, vec![], "sorted keys are deterministic");
    }

    #[test]
    fn cross_function_wall_clock_laundering_is_caught() {
        // Three hops: stamp() -> jitter() -> schedule(); the sink file
        // never mentions Instant. The PR 4 lexer was blind to this.
        let d = run_taint(&[
            (
                "crates/x/src/clock.rs",
                "pub fn stamp() -> u64 { Instant::now().elapsed().as_nanos() as u64 }",
            ),
            (
                "crates/x/src/mid.rs",
                "pub fn jitter() -> u64 { stamp() / 3 }",
            ),
            (
                "crates/x/src/sched.rs",
                "pub fn schedule(sim: &Simulation) {\n\
                   let at = jitter();\n\
                   sim.spawn_at(Nanos(at), \"actor\", move |_| {});\n\
                 }",
            ),
        ]);
        // Both the `Nanos(at)` construction and the spawn_at deadline
        // carry the taint; dedup either is fine, assert the spawn site.
        assert!(!d.is_empty(), "laundered wall clock must be caught");
        assert!(
            d.iter()
                .any(|d| d.path == "crates/x/src/sched.rs" && d.line == 3),
            "{d:#?}"
        );
        assert!(d[0].message.contains("wall clock"), "{}", d[0].message);
    }

    #[test]
    fn untainted_chain_is_clean() {
        let d = run_taint(&[
            (
                "crates/x/src/a.rs",
                "pub fn base(seed: u64) -> u64 { seed.wrapping_mul(3) }",
            ),
            (
                "crates/x/src/b.rs",
                "pub fn use_it(sim: &Simulation) { sim.spawn_at(Nanos(base(7)), \"a\", f); }",
            ),
        ]);
        assert_eq!(d, vec![]);
    }

    #[test]
    fn test_code_is_exempt() {
        let d = run_taint(&[(
            "crates/x/src/lib.rs",
            "#[cfg(test)]\nmod t {\n  fn f(m: &HashMap<u64, u64>, h: &mut Fnv64) {\n    let m = HashMap::new();\n    for k in m.keys() { h.write_u64(*k); }\n  }\n}",
        )]);
        assert_eq!(d, vec![]);
    }
}
