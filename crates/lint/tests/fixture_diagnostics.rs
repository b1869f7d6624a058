//! Fixture-based tests of the lint rules: each rule has one positive
//! fixture (every planted violation must be reported at its exact line)
//! and one negative fixture (zero diagnostics). The fixtures live under
//! `tests/fixtures/` — a directory the workspace scanner skips, so the
//! planted violations never fail `cargo xtask lint` itself.

use bypassd_lint::callgraph::CallGraph;
use bypassd_lint::diag::Diagnostic;
use bypassd_lint::lockgraph::LockGraph;
use bypassd_lint::rules::{self, SourceFile};
use bypassd_lint::taint::TaintPass;
use bypassd_lint::{portcheck, sarif};

fn fixture(name: &str) -> SourceFile {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("fixture readable");
    // Present the fixture as library code so src-only rules apply.
    SourceFile::new(&format!("crates/fixture/src/{name}"), &text)
}

/// Runs the R5 taint pass over one fixture presented as a library file.
fn taint_diags(name: &str) -> Vec<Diagnostic> {
    let files = vec![fixture(name)];
    let lib = vec![Some("fixture".to_string())];
    let graph = CallGraph::build(&files, &lib);
    TaintPass::new(&files, &graph).run(|_| true)
}

/// Runs the call-graph-extended R2 pass over one fixture.
fn interproc_cycles(name: &str) -> Vec<Diagnostic> {
    let files = vec![fixture(name)];
    let lib = vec![Some("fixture".to_string())];
    let graph = CallGraph::build(&files, &lib);
    let mut lock = LockGraph::default();
    lock.scan_file(&files[0], "fixture");
    lock.extend_with_calls(&files, &graph);
    lock.cycles()
}

fn lines(diags: &[Diagnostic], rule: &str) -> Vec<usize> {
    diags
        .iter()
        .map(|d| {
            assert_eq!(d.rule, rule, "unexpected rule in {d}");
            d.line
        })
        .collect()
}

#[test]
fn r1_bad_reports_each_wall_clock_use() {
    let diags = rules::r1(&fixture("r1_bad.rs"));
    // Line 2 is the `use` of SystemTime: importing a wall-clock type is
    // itself a violation, so intent is caught before the first call site.
    assert_eq!(lines(&diags, "R1"), vec![2, 5, 6, 7, 8], "{diags:#?}");
    assert!(diags[0].message.contains("SystemTime"));
    assert!(diags[1].message.contains("Instant::now"));
    assert!(diags[2].message.contains("thread::sleep"));
    assert!(diags[3].message.contains("SystemTime"));
    assert!(diags[4].message.contains("thread_rng"));
}

#[test]
fn r1_good_is_clean() {
    assert_eq!(rules::r1(&fixture("r1_good.rs")), vec![]);
}

#[test]
fn r2_bad_reports_the_inversion_cycle() {
    let mut graph = LockGraph::default();
    graph.scan_file(&fixture("r2_bad.rs"), "fixture");
    let diags = graph.cycles();
    assert_eq!(diags.len(), 1, "{diags:#?}");
    let d = &diags[0];
    assert_eq!(d.rule, "R2");
    assert_eq!(
        d.edge.as_deref(),
        Some("fixture::alpha -> fixture::beta -> fixture::alpha")
    );
    // The reported site is the acquisition that closes the cycle.
    assert_eq!(
        (d.line, d.path.as_str()),
        (16, "crates/fixture/src/r2_bad.rs")
    );
    assert!(d.message.contains("fn backward"), "{}", d.message);
    assert!(d.message.contains("fn forward"), "{}", d.message);
}

#[test]
fn r2_good_has_edges_but_no_cycle() {
    let mut graph = LockGraph::default();
    graph.scan_file(&fixture("r2_good.rs"), "fixture");
    assert!(
        graph
            .edges
            .contains_key(&("fixture::alpha".into(), "fixture::beta".into())),
        "the consistent alpha -> beta edge should be recorded: {:?}",
        graph.edges
    );
    assert_eq!(graph.cycles(), vec![]);
}

#[test]
fn r3_bad_reports_each_unjustified_ordering() {
    let diags = rules::r3(&fixture("r3_bad.rs"));
    assert_eq!(lines(&diags, "R3"), vec![5, 6], "{diags:#?}");
    assert!(diags[0].message.contains("Ordering::Relaxed"));
    assert!(diags[1].message.contains("Ordering::Acquire"));
}

#[test]
fn r3_good_is_clean() {
    assert_eq!(rules::r3(&fixture("r3_good.rs")), vec![]);
}

#[test]
fn r4_bad_reports_each_lock_unwrap() {
    let diags = rules::r4(&fixture("r4_bad.rs"));
    assert_eq!(lines(&diags, "R4"), vec![5, 6, 7], "{diags:#?}");
    assert!(diags[0].message.contains(".lock()"));
    assert!(diags[1].message.contains(".read()"));
    assert!(diags[2].message.contains(".write()"));
}

#[test]
fn r4_good_is_clean() {
    assert_eq!(rules::r4(&fixture("r4_good.rs")), vec![]);
}

/// Fleet executor idiom, wrong on both axes: a worker loop that reads
/// the host clock (which would make virtual-time results depend on the
/// worker count) and a sched/model lock inversion between the step and
/// quiesce paths (the exact two-thread deadlock a sharded scheduler
/// risks).
#[test]
fn fleet_bad_reports_wall_clock_and_lock_inversion() {
    let diags = rules::r1(&fixture("fleet_bad.rs"));
    assert_eq!(lines(&diags, "R1"), vec![13], "{diags:#?}");
    assert!(diags[0].message.contains("Instant::now"));

    let mut graph = LockGraph::default();
    graph.scan_file(&fixture("fleet_bad.rs"), "fleet");
    let cycles = graph.cycles();
    assert_eq!(cycles.len(), 1, "{cycles:#?}");
    assert_eq!(
        cycles[0].edge.as_deref(),
        Some("fleet::model -> fleet::sched -> fleet::model")
    );
    assert!(
        cycles[0].message.contains("fn quiesce"),
        "{}",
        cycles[0].message
    );
}

/// The real lane-step idiom: envelope-driven virtual time, per-driver
/// seeded rngs, and one global sched-before-model lock order.
#[test]
fn fleet_good_is_clean_under_r1_and_r2() {
    assert_eq!(rules::r1(&fixture("fleet_good.rs")), vec![]);
    let mut graph = LockGraph::default();
    graph.scan_file(&fixture("fleet_good.rs"), "fleet");
    assert!(
        graph
            .edges
            .contains_key(&("fleet::sched".into(), "fleet::model".into())),
        "the sched -> model edge should be recorded: {:?}",
        graph.edges
    );
    assert_eq!(graph.cycles(), vec![]);
}

/// R6 on the fleet fixtures: the bad variant wires a raw (non-port)
/// cross-lane channel, the good variant references a declared constant.
#[test]
fn fleet_bad_reports_raw_cross_lane_channel() {
    let diags = portcheck::r6(&fixture("fleet_bad.rs"));
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!((diags[0].rule, diags[0].line, diags[0].col), ("R6", 29, 7));
    assert!(diags[0].message.contains("undeclared port"));
}

#[test]
fn fleet_good_channel_references_a_declared_port() {
    assert_eq!(portcheck::r6(&fixture("fleet_good.rs")), vec![]);
}

/// R5 positive fixture: three planted flows, each asserted at its exact
/// file:line:col span. The two line-19 findings are the laundered
/// wall-clock deadline (`spawn_at` + the `Nanos` construction inside
/// it); line 29 is the unordered-map fingerprint fold.
#[test]
fn r5_bad_reports_each_flow_with_exact_spans() {
    let diags = taint_diags("r5_bad.rs");
    let spans: Vec<(usize, usize, usize)> =
        diags.iter().map(|d| (d.line, d.col, d.end_col)).collect();
    assert_eq!(
        spans,
        vec![(19, 9, 17), (19, 18, 23), (29, 15, 24)],
        "{diags:#?}"
    );
    for d in &diags {
        assert_eq!(d.rule, "R5");
        assert_eq!(d.path, "crates/fixture/src/r5_bad.rs");
    }
    // The sink function never mentions Instant — the chain must cross
    // stamp() -> jitter() -> schedule().
    assert!(
        diags[0].message.contains("simulation deadline"),
        "{}",
        diags[0].message
    );
    assert!(
        diags[0].message.contains("wall clock"),
        "{}",
        diags[0].message
    );
    assert!(
        diags[0].message.contains("calls tainted"),
        "{}",
        diags[0].message
    );
    assert!(
        diags[2].message.contains("FNV fingerprint"),
        "{}",
        diags[2].message
    );
    assert!(
        diags[2].message.contains("unordered"),
        "{}",
        diags[2].message
    );
}

/// A map on the fixed-key hasher stays an unordered collection to R5:
/// the full `HashMap<K, V, FixedState>` spelling is what the lint keys
/// on, for struct fields and annotated locals.
#[test]
fn r5_flags_fixed_hasher_maps_folded_into_a_fingerprint() {
    let diags = taint_diags("r5_fixed_hasher_bad.rs");
    let spans: Vec<(usize, usize, usize)> =
        diags.iter().map(|d| (d.line, d.col, d.end_col)).collect();
    assert_eq!(spans, vec![(16, 15, 24), (25, 11, 20)], "{diags:#?}");
    for d in &diags {
        assert_eq!(d.rule, "R5");
        assert!(d.message.contains("FNV fingerprint"), "{}", d.message);
        assert!(d.message.contains("unordered"), "{}", d.message);
    }
}

#[test]
fn r5_good_sorted_drain_and_seeded_deadline_are_clean() {
    assert_eq!(taint_diags("r5_good.rs"), vec![]);
}

/// R6 positive fixture: an inline `Port::new` and an opaque port
/// variable, each at its exact span.
#[test]
fn r6_bad_reports_inline_port_and_undeclared_channel() {
    let diags = portcheck::r6(&fixture("r6_bad.rs"));
    let spans: Vec<(usize, usize, usize)> =
        diags.iter().map(|d| (d.line, d.col, d.end_col)).collect();
    assert_eq!(spans, vec![(6, 41, 44), (7, 7, 18)], "{diags:#?}");
    assert!(diags[0].message.contains("inline `Port::new`"));
    assert!(diags[1].message.contains("undeclared port"));
}

#[test]
fn r6_good_declared_port_constants_are_clean() {
    assert_eq!(portcheck::r6(&fixture("r6_good.rs")), vec![]);
}

/// Interprocedural R2 positive fixture: four one-lock functions whose
/// inversion exists only through the call graph.
#[test]
fn r2i_bad_reports_the_call_graph_inversion() {
    let diags = interproc_cycles("r2i_bad.rs");
    assert_eq!(diags.len(), 1, "{diags:#?}");
    let d = &diags[0];
    assert_eq!(d.rule, "R2");
    assert_eq!(
        d.edge.as_deref(),
        Some("fixture::model -> fixture::sched -> fixture::model")
    );
    // The reported site is the held call that closes the cycle.
    assert_eq!(
        (d.path.as_str(), d.line),
        ("crates/fixture/src/r2i_bad.rs", 14)
    );
    assert!(
        d.message.contains("via call to touch_model"),
        "{}",
        d.message
    );
    assert!(
        d.message.contains("via call to touch_sched"),
        "{}",
        d.message
    );
}

#[test]
fn r2i_good_guard_dropped_before_call_is_clean() {
    assert_eq!(interproc_cycles("r2i_good.rs"), vec![]);
}

/// SARIF export over real fixture findings: schema pointer, driver
/// identity, all six rule descriptors, and a region per finding.
#[test]
fn sarif_shape_over_fixture_findings() {
    let mut diags = taint_diags("r5_bad.rs");
    diags.extend(portcheck::r6(&fixture("r6_bad.rs")));
    let s = sarif::to_sarif(&diags);
    assert!(s.contains(r#""$schema":"https://json.schemastore.org/sarif-2.1.0.json""#));
    assert!(s.contains(r#""version":"2.1.0""#));
    assert!(s.contains(r#""name":"bypassd-lint""#));
    for id in ["R1", "R2", "R3", "R4", "R5", "R6"] {
        assert!(
            s.contains(&format!(r#""id":"{id}""#)),
            "{id} descriptor missing"
        );
    }
    assert_eq!(s.matches(r#""ruleId":"R5""#).count(), 3, "{s}");
    assert_eq!(s.matches(r#""ruleId":"R6""#).count(), 2, "{s}");
    // Exact region for the fingerprint-fold finding.
    assert!(
        s.contains(r#""region":{"startLine":29,"startColumn":15,"endColumn":24}"#),
        "{s}"
    );
    assert!(s.contains(r#""uri":"crates/fixture/src/r5_bad.rs""#));
}

/// End-to-end: violations surface through the allowlist filter with the
/// exact `path:line:col: [RULE]` rendering the CI log shows.
#[test]
fn diagnostics_render_with_path_line_col_and_rule() {
    let diags = rules::r1(&fixture("r1_bad.rs"));
    let rendered = diags[0].to_string();
    assert!(
        rendered.starts_with("crates/fixture/src/r1_bad.rs:2:"),
        "{rendered}"
    );
    assert!(rendered.contains(": [R1]"), "{rendered}");
    // Column is 1-based and points at the flagged token.
    assert!(
        diags[0].col > 0 && diags[0].end_col > diags[0].col,
        "{diags:#?}"
    );
}
