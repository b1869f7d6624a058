//! R2 — lock-order discipline.
//!
//! A deadlock needs a cycle in the "lock A held while acquiring lock B"
//! relation. This pass extracts that relation statically:
//!
//! 1. Within every function body, find blocking acquisitions — zero-arg
//!    `.lock()`, `.read()`, `.write()` method calls (`try_lock` can't
//!    block and is ignored).
//! 2. Name each lock by `crate::receiver` where `receiver` is the last
//!    field/variable identifier of the receiver expression
//!    (`self.dev_rings[s].lock()` → `trace::dev_rings`). This collapses
//!    instances into classes — exactly what a lock *hierarchy* wants.
//! 3. Model guard lifetimes: a `let`-bound guard lives to the end of its
//!    enclosing block (or an explicit `drop(g)`); a temporary guard lives
//!    to the end of its statement.
//! 4. Every acquisition performed while another guard is live adds a
//!    directed edge. Cycles (including self-loops: re-acquiring the same
//!    lock class while holding it) across the whole workspace graph are
//!    reported with one example site per edge.
//!
//! **v2 — interprocedural extension.** Per-function pairs miss the
//! classic split deadlock: `flush()` takes `ring` then calls
//! `account()`, which takes `stats` — no single function shows the
//! `ring -> stats` edge. With the workspace call graph we compute each
//! function's *transitive may-acquire set* to fixpoint, and every call
//! made while a guard is held extends the order graph with
//! `held × may_acquire(callee)` edges ([`LockGraph::extend_with_calls`]).
//! Name-keyed call resolution over-approximates, so some of these edges
//! are spurious — the allowlist documents those with reasons.
//!
//! The receiver-name heuristic can produce false positives (two distinct
//! mutexes that happen to share a field name, hand-over-hand traversals
//! ordered by some other key). Those are what `lint.toml` allow entries
//! with `pattern = "from -> to"` are for — each one documents *why* the
//! apparent inversion is safe, which is the auditable artifact we want.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::CallGraph;
use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::rules::SourceFile;

/// Where one lock-order edge was observed.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct EdgeSite {
    pub path: String,
    pub line: usize,
    pub func: String,
}

/// Per-function lock facts feeding the interprocedural pass, keyed by
/// `(file path, body start token)` — the same identity the call graph
/// uses for its nodes.
#[derive(Debug, Default)]
pub struct FnLockInfo {
    /// Lock classes this function acquires directly (non-test code),
    /// with one example site each.
    pub local: BTreeMap<String, EdgeSite>,
    /// Call sites executed while guards are held:
    /// `(callee-name token index, held lock classes)`.
    pub held_calls: Vec<(usize, Vec<String>)>,
}

/// The workspace-wide lock-acquisition graph.
#[derive(Debug, Default)]
pub struct LockGraph {
    /// `(held, acquired)` → example sites.
    pub edges: BTreeMap<(String, String), Vec<EdgeSite>>,
    /// Per-function facts for [`Self::extend_with_calls`].
    fn_info: BTreeMap<(String, usize), FnLockInfo>,
}

#[derive(Debug)]
struct Guard {
    key: String,
    /// Binding name when `let`-bound (releasable via `drop(name)`).
    binding: Option<String>,
    /// Bracket depth at the acquisition token.
    depth: usize,
    /// Temporary guards die at the end of their statement.
    temporary: bool,
}

impl LockGraph {
    /// Scans `file` (library sources) and records lock-order edges.
    pub fn scan_file(&mut self, file: &SourceFile, crate_name: &str) {
        for func in &file.model.functions {
            self.scan_function(file, crate_name, func);
        }
    }

    fn scan_function(
        &mut self,
        file: &SourceFile,
        crate_name: &str,
        func: &crate::model::Function,
    ) {
        let toks = &file.model.lexed.tokens;
        let depth = &file.model.depth;
        let mut held: Vec<Guard> = Vec::new();
        let mut info = FnLockInfo::default();
        // Depths of `if`/`while` conditions currently being scanned:
        // their temporaries drop before the block runs (unlike `match`
        // scrutinees and — pre-2024 — `if let`, which keep theirs).
        let mut cond_depths: Vec<usize> = Vec::new();

        for i in func.body.start..func.body.end.min(toks.len()) {
            match &toks[i].kind {
                TokenKind::Ident(kw) if kw == "if" || kw == "while" => {
                    let is_let = matches!(toks.get(i + 1).map(|t| &t.kind),
                        Some(TokenKind::Ident(next)) if next == "let");
                    if !is_let {
                        cond_depths.push(depth[i]);
                    }
                }
                TokenKind::Open('{') if cond_depths.last() == Some(&depth[i]) => {
                    // End of an `if`/`while` condition: its temporary
                    // guards are dropped before the block executes.
                    let d = depth[i];
                    cond_depths.pop();
                    held.retain(|g| !(g.temporary && g.depth >= d));
                }
                TokenKind::Punct(';') => {
                    let d = depth[i];
                    held.retain(|g| !(g.temporary && g.depth >= d));
                }
                TokenKind::Close('}') => {
                    // depth[i] is the depth of the *enclosing* block; any
                    // guard born strictly deeper is dead now.
                    let d = depth[i];
                    held.retain(|g| g.depth <= d);
                }
                // `drop(g)` / `mem::drop(g)` releases a named guard.
                TokenKind::Ident(name)
                    if name == "drop"
                        && toks.get(i + 1).map(|t| &t.kind) == Some(&TokenKind::Open('('))
                        && toks.get(i + 3).map(|t| &t.kind) == Some(&TokenKind::Close(')')) =>
                {
                    if let Some(TokenKind::Ident(arg)) = toks.get(i + 2).map(|t| &t.kind) {
                        held.retain(|g| g.binding.as_deref() != Some(arg.as_str()));
                    }
                }
                TokenKind::Ident(m) if matches!(m.as_str(), "lock" | "read" | "write") => {
                    if !is_blocking_acquisition(toks, i) || file.model.in_test_code(i) {
                        record_held_call(toks, i, &held, &mut info);
                        continue;
                    }
                    let recv = receiver_name(toks, i);
                    let key = format!("{crate_name}::{recv}");
                    let site = EdgeSite {
                        path: file.path.clone(),
                        line: toks[i].line,
                        func: func.name.clone(),
                    };
                    info.local
                        .entry(key.clone())
                        .or_insert_with(|| site.clone());
                    for g in &held {
                        self.edges
                            .entry((g.key.clone(), key.clone()))
                            .or_default()
                            .push(site.clone());
                    }
                    // A `let` binds the *guard* only when the chain ends
                    // right after the call (`let g = x.lock();`); with
                    // further chaining (`let v = x.lock().get(k);`) the
                    // guard is a temporary that dies at the statement end,
                    // and `let _ = ...` drops immediately.
                    let chain_ends =
                        toks.get(i + 3).map(|t| &t.kind) == Some(&TokenKind::Punct(';'));
                    let binding = if chain_ends {
                        let_binding(toks, i).filter(|b| b != "_")
                    } else {
                        None
                    };
                    held.push(Guard {
                        key,
                        temporary: binding.is_none(),
                        binding,
                        depth: depth[i],
                    });
                }
                TokenKind::Ident(_) => record_held_call(toks, i, &held, &mut info),
                _ => {}
            }
        }
        self.fn_info
            .insert((file.path.clone(), func.body.start), info);
    }

    /// Extends the edge set interprocedurally: computes each function's
    /// transitive may-acquire set over the call graph, then adds
    /// `held × may_acquire(callee)` edges for every call made while
    /// guards are live. `files` must be the same list the graph was
    /// built from (node identity is `(path, body start)`).
    pub fn extend_with_calls(&mut self, files: &[SourceFile], graph: &CallGraph) {
        // Transitive may-acquire per call-graph node, seeded from the
        // per-function scans.
        let mut trans: Vec<BTreeSet<String>> = graph
            .fns
            .iter()
            .map(|node| {
                let key = (files[node.file].path.clone(), node.body.start);
                self.fn_info
                    .get(&key)
                    .map(|i| i.local.keys().cloned().collect())
                    .unwrap_or_default()
            })
            .collect();

        // Fixpoint: merge callee sets into callers (bounded like the
        // call-graph driver; cycles converge because sets only grow).
        for _ in 0..64 {
            let mut changed = false;
            for caller in 0..graph.fns.len() {
                for ci in 0..graph.fns[caller].calls.len() {
                    for &callee in graph.resolve(&graph.fns[caller].calls[ci]) {
                        if callee == caller {
                            continue;
                        }
                        let merged: Vec<String> =
                            trans[callee].difference(&trans[caller]).cloned().collect();
                        if !merged.is_empty() {
                            trans[caller].extend(merged);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // Edges: a guard held across a call orders before everything the
        // callee may transitively acquire. The example site is the call
        // itself — that is where the hold must be shortened.
        for (caller, node) in graph.fns.iter().enumerate() {
            if node.in_test {
                continue;
            }
            let file = &files[node.file];
            let key = (file.path.clone(), node.body.start);
            let Some(info) = self.fn_info.get(&key) else {
                continue;
            };
            let mut new_edges: Vec<((String, String), EdgeSite)> = Vec::new();
            for (call_idx, held) in &info.held_calls {
                for call in &node.calls {
                    if call.idx != *call_idx {
                        continue;
                    }
                    for &callee in graph.resolve(call) {
                        if callee == caller {
                            continue;
                        }
                        for acquired in &trans[callee] {
                            let site = EdgeSite {
                                path: file.path.clone(),
                                line: call.line,
                                func: format!("{} (via call to {})", node.name, call.name),
                            };
                            for h in held {
                                new_edges.push(((h.clone(), acquired.clone()), site.clone()));
                            }
                        }
                    }
                }
            }
            for (edge, site) in new_edges {
                self.edges.entry(edge).or_default().push(site);
            }
        }
    }

    /// Removes edges an allow entry covers; `pattern` matches the
    /// `from -> to` label and `path` (when set) must prefix a site path.
    pub fn allow_edge(&mut self, pattern: &str, path: &str) -> bool {
        let before = self.edges.len();
        self.edges.retain(|(from, to), sites| {
            let label = format!("{from} -> {to}");
            !(label.contains(pattern)
                && (path.is_empty() || sites.iter().any(|s| s.path.starts_with(path))))
        });
        self.edges.len() != before
    }

    /// Reports every cycle in the graph as diagnostics.
    pub fn cycles(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let nodes: BTreeSet<&String> = self.edges.keys().flat_map(|(a, b)| [a, b]).collect();
        let mut adj: BTreeMap<&String, Vec<&String>> = BTreeMap::new();
        for (a, b) in self.edges.keys() {
            adj.entry(a).or_default().push(b);
        }

        // Self-loops first (a cycle of length 1).
        for ((a, b), sites) in &self.edges {
            if a == b {
                out.push(self.cycle_diag(&[a.clone(), b.clone()], sites));
            }
        }

        // Longer cycles: DFS from each node, smallest-node-first so each
        // cycle is reported once (only when rooted at its minimum node).
        for &root in &nodes {
            let mut stack = vec![(root, vec![root.clone()])];
            let mut visited = BTreeSet::new();
            while let Some((node, trail)) = stack.pop() {
                for &next in adj.get(node).map(Vec::as_slice).unwrap_or_default() {
                    if next == root && trail.len() > 1 {
                        if trail.iter().min() == Some(root) {
                            let mut cyc = trail.clone();
                            cyc.push(root.clone());
                            let sites = &self.edges[&(node.clone(), root.clone())];
                            out.push(self.cycle_diag(&cyc, sites));
                        }
                    } else if next > root && visited.insert(next) {
                        let mut t = trail.clone();
                        t.push(next.clone());
                        stack.push((next, t));
                    }
                }
            }
        }
        out
    }

    fn cycle_diag(&self, cycle: &[String], sites: &[EdgeSite]) -> Diagnostic {
        let site = sites.first().cloned().unwrap_or(EdgeSite {
            path: String::new(),
            line: 0,
            func: String::new(),
        });
        let chain = cycle.join(" -> ");
        let mut detail = String::new();
        for w in cycle.windows(2) {
            if let Some(ss) = self.edges.get(&(w[0].clone(), w[1].clone())) {
                let s = &ss[0];
                detail.push_str(&format!(
                    "\n    | {} -> {} at {}:{} (fn {})",
                    w[0], w[1], s.path, s.line, s.func
                ));
            }
        }
        Diagnostic {
            rule: "R2",
            path: site.path,
            line: site.line,
            col: 0,
            end_col: 0,
            message: format!(
                "lock-order cycle: {chain}; a thread holding one side while another \
                 holds the other deadlocks. Fix the acquisition order or allowlist \
                 the edge with a reason documenting the real ordering key.{detail}"
            ),
            context: format!("in fn {}", site.func),
            edge: Some(chain),
        }
    }
}

/// Records `toks[i]` as a call site made under `held` guards when it
/// looks like one (`name(`), feeding the interprocedural pass.
fn record_held_call(toks: &[crate::lexer::Token], i: usize, held: &[Guard], info: &mut FnLockInfo) {
    if held.is_empty() {
        return;
    }
    if toks.get(i + 1).map(|t| &t.kind) != Some(&TokenKind::Open('(')) {
        return;
    }
    info.held_calls
        .push((i, held.iter().map(|g| g.key.clone()).collect()));
}

/// `.lock()` / `.read()` / `.write()` with zero args, called as a method.
fn is_blocking_acquisition(toks: &[crate::lexer::Token], i: usize) -> bool {
    i > 0
        && toks[i - 1].kind == TokenKind::Punct('.')
        && toks.get(i + 1).map(|t| &t.kind) == Some(&TokenKind::Open('('))
        && toks.get(i + 2).map(|t| &t.kind) == Some(&TokenKind::Close(')'))
}

/// Walks backwards from the `.` before the method name to find the last
/// identifier of the receiver expression, skipping index/call groups:
/// `self.dev_rings[shard]` → `dev_rings`, `ring` → `ring`.
pub(crate) fn receiver_name(toks: &[crate::lexer::Token], method_idx: usize) -> String {
    let mut j = method_idx as isize - 2;
    while j >= 0 {
        match &toks[j as usize].kind {
            TokenKind::Close(c) => {
                // Skip back over the bracketed group.
                let open = match c {
                    ')' => '(',
                    ']' => '[',
                    _ => '{',
                };
                let mut d = 1;
                j -= 1;
                while j >= 0 && d > 0 {
                    match &toks[j as usize].kind {
                        TokenKind::Close(_) => d += 1,
                        TokenKind::Open(k) if *k == open && d == 1 => d = 0,
                        TokenKind::Open(_) => d -= 1,
                        _ => {}
                    }
                    if d > 0 {
                        j -= 1;
                    }
                }
                j -= 1;
            }
            TokenKind::Ident(name) => return name.clone(),
            TokenKind::Punct('.') => j -= 1,
            _ => break,
        }
    }
    "<expr>".to_string()
}

/// If the statement containing the acquisition starts with
/// `let [mut] NAME =`, returns `NAME` (the guard binding).
fn let_binding(toks: &[crate::lexer::Token], method_idx: usize) -> Option<String> {
    // Walk back to the statement/expression boundary.
    let mut j = method_idx as isize - 1;
    let mut depth = 0;
    while j >= 0 {
        match &toks[j as usize].kind {
            TokenKind::Close(_) => depth += 1,
            TokenKind::Open(_) if depth > 0 => depth -= 1,
            TokenKind::Open(_) => break,
            TokenKind::Punct(';') | TokenKind::Punct(',') if depth == 0 => break,
            _ => {}
        }
        j -= 1;
    }
    let start = (j + 1) as usize;
    match toks.get(start).map(|t| &t.kind) {
        Some(TokenKind::Ident(kw)) if kw == "let" => {}
        _ => return None,
    }
    let mut k = start + 1;
    if let Some(TokenKind::Ident(m)) = toks.get(k).map(|t| &t.kind) {
        if m == "mut" {
            k += 1;
        }
    }
    let name = match toks.get(k).map(|t| &t.kind) {
        Some(TokenKind::Ident(name)) => name.clone(),
        _ => return None,
    };
    // The initializer must be a plain receiver chain (`let g = a.b.lock();`).
    // A leading `*` (`let st = *x.lock();`) deref-copies the protected
    // value — the guard itself is a temporary, not bound to `st`.
    if toks.get(k + 1).map(|t| &t.kind) != Some(&TokenKind::Punct('=')) {
        return None;
    }
    match toks.get(k + 2).map(|t| &t.kind) {
        Some(TokenKind::Ident(_)) => Some(name),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(src: &str) -> LockGraph {
        let mut g = LockGraph::default();
        g.scan_file(&SourceFile::new("crates/x/src/lib.rs", src), "x");
        g
    }

    #[test]
    fn nested_let_guards_make_an_edge() {
        let g = graph_of(
            "fn f(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); use_(a, b); }",
        );
        assert!(g.edges.contains_key(&("x::alpha".into(), "x::beta".into())));
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let g = graph_of("fn f(&self) { self.alpha.lock().push(1); self.beta.lock().push(2); }");
        assert!(g.edges.is_empty(), "{:?}", g.edges);
    }

    #[test]
    fn explicit_drop_releases_guard() {
        let g = graph_of(
            "fn f(&self) { let a = self.alpha.lock(); drop(a); let b = self.beta.lock(); b.x(); }",
        );
        assert!(g.edges.is_empty(), "{:?}", g.edges);
    }

    #[test]
    fn block_scope_releases_guard() {
        let g = graph_of(
            "fn f(&self) { { let a = self.alpha.lock(); a.x(); } let b = self.beta.lock(); b.x(); }",
        );
        assert!(g.edges.is_empty(), "{:?}", g.edges);
    }

    #[test]
    fn inversion_across_functions_is_a_cycle() {
        let g = graph_of(
            "fn f(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); u(a, b); }\n\
             fn g(&self) { let b = self.beta.lock(); let a = self.alpha.lock(); u(a, b); }",
        );
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1, "{cycles:?}");
        assert!(cycles[0].edge.as_deref().unwrap().contains("alpha"));
        assert!(cycles[0].edge.as_deref().unwrap().contains("beta"));
    }

    #[test]
    fn self_loop_is_reported() {
        let g = graph_of(
            "fn f(&self, o: &S) { let a = self.node.lock(); let b = o.node.lock(); u(a, b); }",
        );
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].edge.as_deref(), Some("x::node -> x::node"));
    }

    #[test]
    fn allowed_edge_breaks_the_cycle() {
        let mut g = graph_of(
            "fn f(&self, o: &S) { let a = self.node.lock(); let b = o.node.lock(); u(a, b); }",
        );
        assert!(g.allow_edge("x::node -> x::node", ""));
        assert!(g.cycles().is_empty());
    }

    #[test]
    fn receiver_name_skips_index_groups() {
        let g = graph_of(
            "fn f(&self) { let a = self.rings[i].lock(); let b = self.other[j].lock(); u(a, b); }",
        );
        assert!(g
            .edges
            .contains_key(&("x::rings".into(), "x::other".into())));
    }

    #[test]
    fn let_of_chained_result_is_not_a_guard_binding() {
        // `cached` binds the Option, not the guard: the guard dies at the
        // statement end, so the second acquisition is not nested.
        let g = graph_of(
            "fn f(&self) { let cached = self.cache.lock().get(k); let e = self.cache.lock().insert(k, v); u(cached, e); }",
        );
        assert!(g.edges.is_empty(), "{:?}", g.edges);
    }

    #[test]
    fn let_of_deref_copy_is_not_a_guard_binding() {
        // `st` is a copy of the protected value; the guard is a temporary.
        let g = graph_of(
            "fn f(&self) { let st = *self.state.lock(); let s = self.state.lock(); u(st, s); }",
        );
        assert!(g.edges.is_empty(), "{:?}", g.edges);
    }

    #[test]
    fn let_underscore_drops_immediately() {
        let g = graph_of(
            "fn f(&self) { let _ = self.shared.lock(); let b = self.shared.lock(); b.x(); }",
        );
        assert!(g.edges.is_empty(), "{:?}", g.edges);
    }

    #[test]
    fn try_lock_is_ignored() {
        let g = graph_of(
            "fn f(&self) { let a = self.alpha.try_lock(); let b = self.beta.lock(); u(a, b); }",
        );
        assert!(g.edges.is_empty());
    }

    fn graph_v2(src: &str) -> LockGraph {
        let files = vec![SourceFile::new("crates/x/src/lib.rs", src)];
        let lib = vec![Some("x".to_string())];
        let cg = CallGraph::build(&files, &lib);
        let mut g = LockGraph::default();
        g.scan_file(&files[0], "x");
        g.extend_with_calls(&files, &cg);
        g
    }

    #[test]
    fn if_condition_temporary_drops_before_the_block() {
        // Rust drops the condition's temporary guard before entering the
        // block, so the body's acquisition is not nested.
        let g = graph_of(
            "fn f(&self) { if self.pending.lock().len() > 4 { let b = self.other.lock(); b.x(); } }",
        );
        assert!(g.edges.is_empty(), "{:?}", g.edges);
    }

    #[test]
    fn if_condition_call_is_not_made_under_the_guard() {
        let g = graph_v2(
            "fn f(&self) { if self.pending.lock().len() > 4 { grab(); } }\n\
             fn grab(&self) { let p = self.pending.lock(); p.x(); }",
        );
        assert!(
            !g.edges
                .contains_key(&("x::pending".into(), "x::pending".into())),
            "{:?}",
            g.edges.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn hold_across_call_extends_the_order_graph() {
        // flush holds `ring` while calling account, which takes `stats`:
        // no single function shows the pair, but the order edge exists.
        let g = graph_v2(
            "fn flush(&self) { let r = self.ring.lock(); account(&r); }\n\
             fn account(&self, r: &Ring) { let s = self.stats.lock(); s.add(r); }",
        );
        assert!(
            g.edges.contains_key(&("x::ring".into(), "x::stats".into())),
            "{:?}",
            g.edges.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn interprocedural_inversion_is_a_cycle() {
        let g = graph_v2(
            "fn flush(&self) { let r = self.ring.lock(); account(&r); }\n\
             fn account(&self, r: &Ring) { let s = self.stats.lock(); s.add(r); }\n\
             fn report(&self) { let s = self.stats.lock(); let r = self.ring.lock(); u(s, r); }",
        );
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1, "{cycles:?}");
        let edge = cycles[0].edge.as_deref().unwrap();
        assert!(edge.contains("ring") && edge.contains("stats"), "{edge}");
    }

    #[test]
    fn transitive_may_acquire_reaches_two_hops() {
        // flush -> mid -> deep: deep's lock is visible to flush's hold.
        let g = graph_v2(
            "fn flush(&self) { let r = self.ring.lock(); mid(); }\n\
             fn mid(&self) { deep(); }\n\
             fn deep(&self) { let s = self.stats.lock(); s.x(); }",
        );
        assert!(
            g.edges.contains_key(&("x::ring".into(), "x::stats".into())),
            "{:?}",
            g.edges.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn call_after_guard_release_adds_no_edge() {
        let g = graph_v2(
            "fn flush(&self) { { let r = self.ring.lock(); r.x(); } account(); }\n\
             fn account(&self) { let s = self.stats.lock(); s.x(); }",
        );
        assert!(
            !g.edges.contains_key(&("x::ring".into(), "x::stats".into())),
            "{:?}",
            g.edges.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn three_cycle_detected_once() {
        let g = graph_of(
            "fn f(&self) { let a = self.a.lock(); let b = self.b.lock(); u(a, b); }\n\
             fn g(&self) { let b = self.b.lock(); let c = self.c.lock(); u(b, c); }\n\
             fn h(&self) { let c = self.c.lock(); let a = self.a.lock(); u(c, a); }",
        );
        assert_eq!(g.cycles().len(), 1);
    }
}
