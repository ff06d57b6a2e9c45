//! Fixture tests for every `pll-audit` rule: one passing and one
//! violating snippet per rule, the waiver grammar (well-formed,
//! malformed, unused), the non-waivable hard errors, and the self-test
//! that the committed tree is clean under `--deny` semantics.
//!
//! The fixtures are in-memory string literals fed through
//! [`pll_audit::scan_source`] with a synthetic repo-relative path — the
//! path is part of the fixture, because every rule scopes by path.

use pll_audit::{scan_source, Report};

/// Rules that fired in `r`, in order.
fn rules(r: &Report) -> Vec<&str> {
    r.findings.iter().map(|f| f.rule.as_str()).collect()
}

// ---------------------------------------------------------------------
// unsafe-confinement
// ---------------------------------------------------------------------

#[test]
fn unsafe_outside_allowlist_fires() {
    let src = "pub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
    let r = scan_source("crates/core/src/par.rs", src);
    assert_eq!(rules(&r), ["unsafe-confinement"]);
    assert_eq!(r.findings[0].line, 2);
    assert!(r.findings[0].message.contains("allowlisted"));
}

#[test]
fn unsafe_in_allowlisted_module_with_safety_comment_passes() {
    let src = "pub fn f(p: *const u8) -> u8 {\n\
               \x20   // SAFETY: caller guarantees p is valid (fixture).\n\
               \x20   unsafe { *p }\n}\n";
    let r = scan_source("crates/core/src/storage.rs", src);
    assert!(r.is_clean(), "unexpected findings: {:?}", r.findings);
}

#[test]
fn unsafe_in_allowlisted_module_without_safety_comment_fires() {
    let src = "pub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
    let r = scan_source("crates/core/src/storage.rs", src);
    assert_eq!(rules(&r), ["unsafe-confinement"]);
    assert!(r.findings[0].message.contains("SAFETY"));
}

#[test]
fn safety_comment_covers_a_contiguous_unsafe_block() {
    // One comment, two unsafe sites on consecutive lines: the second
    // site keeps the annotation window open.
    let src = "// SAFETY: both views alias the same allocation (fixture).\n\
               let a = unsafe { x() };\n\
               let b = unsafe { y() };\n";
    let r = scan_source("crates/core/src/storage.rs", src);
    assert!(r.is_clean(), "unexpected findings: {:?}", r.findings);
}

#[test]
fn unsafe_in_string_or_comment_is_ignored() {
    let src = "// this comment says unsafe\nlet s = \"unsafe { }\";\nlet id = unsafe_code_count;\n";
    let r = scan_source("crates/server/src/lib.rs", src);
    assert!(r.is_clean(), "unexpected findings: {:?}", r.findings);
}

// ---------------------------------------------------------------------
// durable-write
// ---------------------------------------------------------------------

#[test]
fn file_create_in_core_fires() {
    let src = "fn save(p: &std::path::Path) {\n    let f = std::fs::File::create(p);\n}\n";
    let r = scan_source("crates/core/src/serialize.rs", src);
    assert_eq!(rules(&r), ["durable-write"]);
    assert!(r.findings[0].message.contains("atomic_write"));
}

#[test]
fn open_options_in_cli_fires() {
    let src = "fn f() {\n    let o = std::fs::OpenOptions::new().write(true);\n}\n";
    let r = scan_source("crates/cli/src/main.rs", src);
    assert_eq!(rules(&r), ["durable-write"]);
}

#[test]
fn file_create_is_allowed_in_wal_tests_and_bench() {
    let src = "fn f(p: &std::path::Path) {\n    let f = std::fs::File::create(p);\n}\n";
    // wal.rs implements the discipline.
    assert!(scan_source("crates/core/src/wal.rs", src).is_clean());
    // bench output is out of scope.
    assert!(scan_source("crates/bench/src/lib.rs", src).is_clean());
    // test code is out of scope.
    let test_src = "#[cfg(test)]\nmod tests {\n    fn f() {\n        let f = std::fs::File::create(\"x\");\n    }\n}\n";
    assert!(scan_source("crates/core/src/serialize.rs", test_src).is_clean());
}

// ---------------------------------------------------------------------
// atomic-ordering
// ---------------------------------------------------------------------

#[test]
fn unannotated_ordering_fires() {
    let src =
        "fn f(c: &std::sync::atomic::AtomicU64) {\n    c.fetch_add(1, Ordering::Relaxed);\n}\n";
    let r = scan_source("crates/core/src/par.rs", src);
    assert_eq!(rules(&r), ["atomic-ordering"]);
    assert!(r.findings[0].waivable);
}

#[test]
fn ordering_comment_within_window_passes() {
    let src = "fn f(c: &std::sync::atomic::AtomicU64) {\n\
               \x20   // ORDERING: Relaxed — plain counter (fixture).\n\
               \x20   c.fetch_add(1, Ordering::Relaxed);\n\
               \x20   c.fetch_add(2, Ordering::Relaxed);\n}\n";
    let r = scan_source("crates/core/src/par.rs", src);
    assert!(r.is_clean(), "unexpected findings: {:?}", r.findings);
}

#[test]
fn all_five_ordering_variants_are_matched() {
    for variant in ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"] {
        let src = format!("fn f() {{\n    x.load(Ordering::{variant});\n}}\n");
        let r = scan_source("crates/core/src/order.rs", &src);
        assert_eq!(rules(&r), ["atomic-ordering"], "variant {variant}");
    }
}

#[test]
fn cmp_ordering_is_not_an_atomic_ordering() {
    let src = "fn f(a: u32, b: u32) -> std::cmp::Ordering {\n    std::cmp::Ordering::Less\n}\n";
    // `Ordering::Less` is not one of the five atomic variants.
    let r = scan_source("crates/core/src/order.rs", src);
    assert!(r.is_clean(), "unexpected findings: {:?}", r.findings);
}

#[test]
fn relaxed_on_publish_named_operation_is_a_hard_error() {
    for name in ["epoch", "publish", "shutdown"] {
        let src = format!(
            "// ORDERING: annotated, but still wrong (fixture).\n\
             fn f() {{\n    self.{name}_flag.store(1, Ordering::Relaxed);\n}}\n"
        );
        let r = scan_source("crates/server/src/lib.rs", &src);
        assert_eq!(rules(&r), ["atomic-ordering"], "name {name}");
        assert!(!r.findings[0].waivable, "{name} must be non-waivable");
        assert!(r.findings[0].message.contains("hard error"));
    }
}

#[test]
fn relaxed_hard_error_ignores_waivers() {
    let src = "// audit: allow(atomic-ordering, reason = \"trust me\")\n\
               epoch_counter.store(1, Ordering::Relaxed);\n";
    let r = scan_source("crates/server/src/lib.rs", src);
    // The hard error survives AND the waiver is reported unused
    // (findings sort by line: the waiver comment precedes the store).
    assert_eq!(rules(&r), ["unused-waiver", "atomic-ordering"]);
}

// ---------------------------------------------------------------------
// lock-hygiene
// ---------------------------------------------------------------------

#[test]
fn lock_unwrap_in_server_fires() {
    for call in ["lock", "read", "write"] {
        let src = format!("fn f() {{\n    let g = MU.{call}().unwrap();\n}}\n");
        let r = scan_source("crates/server/src/lib.rs", &src);
        assert!(
            rules(&r).contains(&"lock-hygiene"),
            "{call}(): got {:?}",
            r.findings
        );
    }
}

#[test]
fn poison_recovering_lock_passes() {
    let src =
        "fn f() {\n    let g = MU.lock().unwrap_or_else(|poisoned| poisoned.into_inner());\n}\n";
    let r = scan_source("crates/server/src/lib.rs", src);
    assert!(
        !rules(&r).contains(&"lock-hygiene"),
        "unexpected findings: {:?}",
        r.findings
    );
}

#[test]
fn lock_unwrap_outside_server_is_out_of_scope() {
    let src = "fn f() {\n    let g = MU.lock().unwrap();\n}\n";
    let r = scan_source("crates/core/src/par.rs", src);
    assert!(!rules(&r).contains(&"lock-hygiene"));
}

// ---------------------------------------------------------------------
// panic-hygiene
// ---------------------------------------------------------------------

#[test]
fn panic_constructs_in_server_fire() {
    for (snippet, label) in [
        ("x.unwrap();", "unwrap"),
        ("x.expect(\"boom\");", "expect"),
        ("panic!(\"boom\");", "panic"),
        ("unreachable!();", "unreachable"),
        ("todo!();", "todo"),
        ("unimplemented!();", "unimplemented"),
        ("std::process::abort();", "abort"),
    ] {
        let src = format!("fn f() {{\n    {snippet}\n}}\n");
        let r = scan_source("crates/server/src/protocol.rs", &src);
        assert!(
            rules(&r).contains(&"panic-hygiene"),
            "{label}: got {:?}",
            r.findings
        );
    }
}

#[test]
fn unwrap_or_variants_pass() {
    let src = "fn f() {\n    let a = x.unwrap_or(0);\n    let b = x.unwrap_or_else(|| 0);\n    let c = x.unwrap_or_default();\n}\n";
    let r = scan_source("crates/server/src/lib.rs", src);
    assert!(r.is_clean(), "unexpected findings: {:?}", r.findings);
}

#[test]
fn panics_in_test_modules_and_bench_lib_pass() {
    let test_src =
        "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        x.unwrap();\n    }\n}\n";
    assert!(scan_source("crates/server/src/lib.rs", test_src).is_clean());
    // Only the smoke load generator is in scope, not the bench library.
    let src = "fn f() {\n    x.unwrap();\n}\n";
    assert!(scan_source("crates/bench/src/lib.rs", src).is_clean());
    // But the load generator is.
    assert_eq!(
        rules(&scan_source("crates/bench/src/bin/serve_load.rs", src)),
        ["panic-hygiene"]
    );
}

// ---------------------------------------------------------------------
// metrics-hygiene
// ---------------------------------------------------------------------

#[test]
fn bare_atomic_counter_outside_metrics_module_fires() {
    let src = "struct S {\n    hits: AtomicU64,\n}\n";
    let r = scan_source("crates/server/src/lib.rs", src);
    assert_eq!(rules(&r), ["metrics-hygiene"]);
    assert!(r.findings[0].message.contains("metrics"));
}

#[test]
fn atomic_counters_in_the_metrics_module_pass() {
    let src = "pub struct WorkerMetrics {\n    pub queries: AtomicU64,\n}\n";
    let r = scan_source("crates/server/src/metrics.rs", src);
    assert!(r.is_clean(), "unexpected findings: {:?}", r.findings);
}

#[test]
fn atomic_collections_imports_and_tests_pass() {
    // The per-vertex generation table is shared state, not a metric.
    let src = "use std::sync::atomic::AtomicU64;\n\
               struct S {\n    gens: Vec<AtomicU64>,\n}\n\
               fn g(gens: &[AtomicU64]) -> usize {\n    gens.len()\n}\n";
    assert!(scan_source("crates/server/src/lib.rs", src).is_clean());
    let test_src = "#[cfg(test)]\nmod tests {\n    static C: AtomicU64 = AtomicU64::new(0);\n}\n";
    assert!(scan_source("crates/server/src/lib.rs", test_src).is_clean());
    // Other crates are out of scope for the stray-counter check.
    let src = "struct S {\n    hits: AtomicU64,\n}\n";
    assert!(scan_source("crates/core/src/par.rs", src).is_clean());
}

#[test]
fn metric_registration_with_empty_help_fires() {
    // Any crate: an undocumented metric is a finding wherever the
    // registry is used, including multi-line rustfmt-split calls.
    let src = "fn r(reg: &Registry) {\n    let c = reg.counter(\"pll_x_total\", \"\");\n}\n";
    let r = scan_source("crates/server/src/metrics.rs", src);
    assert_eq!(rules(&r), ["metrics-hygiene"]);
    assert!(r.findings[0].message.contains("help"));
    let split = "fn r(reg: &Registry) {\n    reg.gauge_fn(\n        \"pll_depth\",\n        \"\",\n    );\n}\n";
    let r = scan_source("crates/obs/src/lib.rs", split);
    assert_eq!(rules(&r), ["metrics-hygiene"]);
}

#[test]
fn metric_registration_with_help_passes() {
    let src = "fn r(reg: &Registry) {\n    let c = reg.counter(\"pll_x_total\", \"Things counted.\");\n}\n";
    let r = scan_source("crates/server/src/metrics.rs", src);
    assert!(r.is_clean(), "unexpected findings: {:?}", r.findings);
}

// ---------------------------------------------------------------------
// waiver grammar
// ---------------------------------------------------------------------

#[test]
fn waiver_on_own_line_suppresses_next_code_line() {
    let src = "// audit: allow(panic-hygiene, reason = \"fixture demonstrating waivers\")\n\
               fn f() { x.unwrap(); }\n";
    let r = scan_source("crates/server/src/lib.rs", src);
    assert!(r.is_clean(), "unexpected findings: {:?}", r.findings);
    assert_eq!(r.waivers.len(), 1);
    assert_eq!(r.waivers[0].rule, "panic-hygiene");
    assert_eq!(r.waivers[0].reason, "fixture demonstrating waivers");
}

#[test]
fn trailing_waiver_suppresses_its_own_line() {
    let src = "fn f() { x.unwrap(); } // audit: allow(panic-hygiene, reason = \"fixture\")\n";
    let r = scan_source("crates/server/src/lib.rs", src);
    assert!(r.is_clean(), "unexpected findings: {:?}", r.findings);
    assert_eq!(r.waivers.len(), 1);
}

#[test]
fn waiver_for_a_different_rule_does_not_suppress() {
    let src = "// audit: allow(lock-hygiene, reason = \"wrong rule\")\n\
               fn f() { x.unwrap(); }\n";
    let r = scan_source("crates/server/src/lib.rs", src);
    // The panic finding survives and the lock waiver is unused.
    assert_eq!(rules(&r), ["unused-waiver", "panic-hygiene"]);
}

#[test]
fn malformed_waivers_are_findings() {
    for bad in [
        // missing reason entirely
        "// audit: allow(panic-hygiene)\n",
        // empty reason
        "// audit: allow(panic-hygiene, reason = \"\")\n",
        // unknown rule id
        "// audit: allow(no-such-rule, reason = \"x\")\n",
        // not the allow() form
        "// audit: suppress(panic-hygiene)\n",
    ] {
        let src = format!("{bad}fn f() {{ x.unwrap(); }}\n");
        let r = scan_source("crates/server/src/lib.rs", &src);
        let got = rules(&r);
        assert!(
            got.contains(&"malformed-waiver") && got.contains(&"panic-hygiene"),
            "fixture {bad:?}: a malformed waiver must fire AND not suppress; got {got:?}"
        );
    }
}

#[test]
fn unused_waiver_is_a_finding() {
    let src = "// audit: allow(panic-hygiene, reason = \"nothing here panics\")\n\
               fn f() -> u32 { 1 }\n";
    let r = scan_source("crates/server/src/lib.rs", src);
    assert_eq!(rules(&r), ["unused-waiver"]);
}

#[test]
fn quoted_waiver_in_doc_comment_is_not_live() {
    // Documentation shows the grammar by quoting it behind an inner
    // `//` — that must neither waive anything nor count as unused.
    let src =
        "//! Use `// audit: allow(panic-hygiene, reason = \"…\")` to waive.\nfn f() -> u32 { 1 }\n";
    let r = scan_source("crates/core/src/lib.rs", src);
    assert!(r.is_clean(), "unexpected findings: {:?}", r.findings);
    assert!(r.waivers.is_empty());
}

// ---------------------------------------------------------------------
// lexer corner cases the rules depend on
// ---------------------------------------------------------------------

#[test]
fn tokens_inside_raw_strings_do_not_fire() {
    let src = "fn f() -> &'static str {\n    r#\"unsafe panic!( .unwrap() File::create(\"#\n}\n";
    let r = scan_source("crates/server/src/lib.rs", src);
    assert!(r.is_clean(), "unexpected findings: {:?}", r.findings);
}

#[test]
fn tokens_inside_block_comments_do_not_fire() {
    let src = "/* unsafe { } x.unwrap() Ordering::Relaxed */\nfn f() -> u32 { 1 }\n";
    let r = scan_source("crates/server/src/lib.rs", src);
    assert!(r.is_clean(), "unexpected findings: {:?}", r.findings);
}

// ---------------------------------------------------------------------
// self-test: the committed tree is clean under --deny
// ---------------------------------------------------------------------

#[test]
fn every_scoped_path_exists_in_the_workspace() {
    // A rule scoped to a path that no longer exists audits nothing, and
    // says nothing about it: pin every scope entry to a real file or
    // directory.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let scoped = pll_audit::UNSAFE_ALLOWLIST
        .iter()
        .chain(pll_audit::DURABLE_WRITE_SCOPE)
        .chain(pll_audit::LOCK_HYGIENE_SCOPE)
        .chain(pll_audit::PANIC_HYGIENE_SCOPE)
        .chain([
            &pll_audit::DURABLE_WRITE_IMPL,
            &pll_audit::METRICS_HOME,
            &pll_audit::METRICS_SCOPE,
        ]);
    for path in scoped {
        assert!(
            root.join(path).exists(),
            "audit scope entry `{path}` names nothing in the workspace"
        );
    }
}

#[test]
fn committed_tree_is_clean_under_deny() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let report = pll_audit::scan_tree(&root).expect("scan the workspace");
    assert!(report.files_scanned > 50, "walker found the workspace");
    assert!(
        report.is_clean(),
        "the committed tree must pass `pll-audit --deny`; findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The tree carries no waivers at all: every invariant is satisfied
    // for real, not waived away (fixtures above prove the grammar works).
    assert!(
        report.waivers.is_empty(),
        "unexpected waivers in the tree: {:?}",
        report.waivers
    );
}
