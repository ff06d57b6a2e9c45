//! `pll-audit` — an invariant-enforcing static-analysis pass over the
//! workspace sources.
//!
//! The serving stack's correctness rests on conventions that no compiler
//! checks: `unsafe` pointer casts confined to two audited modules, every
//! durable write flowing through `wal::atomic_write`, every explicit
//! atomic ordering carrying a rationale, and the server's request paths
//! staying free of panics and poison-propagating lock unwraps. This crate
//! turns those conventions into named, machine-checked rules
//! ([`RULES`]) with rustc-style diagnostics, a JSON report, and a
//! `--deny` mode for CI. See `docs/INVARIANTS.md` for the prose version
//! of each invariant.
//!
//! The scanner is a *line* scanner, not a parser: it is comment- and
//! string-aware (so `"File::create"` inside a string literal or a doc
//! comment never fires a rule) and tracks `#[cfg(test)]` module regions
//! by brace depth, but it does not build an AST — it is the same
//! hand-rolled, dependency-free species of tool as `shims/` and
//! `pll_core::fail`, runnable in this registry-less container.
//!
//! # Waivers
//!
//! A finding can be waived in place with an inline comment on the
//! flagged line or on the line directly above it:
//!
//! ```text
//! // audit: allow(panic-hygiene, reason = "test-only helper binary")
//! ```
//!
//! The reason is mandatory and must be non-empty: an un-reasoned waiver
//! is itself an error (`malformed-waiver`), and a waiver that suppresses
//! nothing is too (`unused-waiver`), so the committed tree can never
//! accumulate silent escape hatches. Two findings are *hard errors* that
//! no waiver silences: a malformed waiver, and `Ordering::Relaxed`
//! applied to an epoch/publish/shutdown-named operation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::path::{Path, PathBuf};

/// Every rule id the tool enforces, in diagnostic order.
pub const RULES: &[&str] = &[
    "unsafe-confinement",
    "durable-write",
    "atomic-ordering",
    "lock-hygiene",
    "panic-hygiene",
    "metrics-hygiene",
];

/// Pseudo-rules emitted by the waiver machinery itself (never waivable).
pub const META_RULES: &[&str] = &["malformed-waiver", "unused-waiver"];

/// Files allowed to contain `unsafe` at all. Everything here still
/// requires a `// SAFETY:` comment at every unsafe site.
///
/// * `core::storage` — the zero-copy pointer casts and the `mmap`
///   syscalls (the only FFI in the workspace);
/// * `core::kernel` — the branchless merge-join's `get_unchecked` reads,
///   guarded by `well_formed`;
/// * `tests/zero_copy_alloc.rs` — the counting `GlobalAlloc` shim the
///   zero-allocation proof needs (`GlobalAlloc` is an unsafe trait).
pub const UNSAFE_ALLOWLIST: &[&str] = &[
    "crates/core/src/storage.rs",
    "crates/core/src/kernel.rs",
    "tests/zero_copy_alloc.rs",
];

/// The module that *implements* the durable-write discipline and is
/// therefore exempt from it.
pub const DURABLE_WRITE_IMPL: &str = "crates/core/src/wal.rs";

/// Crates whose non-test code must route index/WAL writes through
/// `wal::atomic_write` (bench/test output is deliberately out of scope —
/// a torn BENCH_*.json costs nothing).
pub const DURABLE_WRITE_SCOPE: &[&str] =
    &["crates/core/src/", "crates/cli/src/", "crates/server/src/"];

/// Server sources whose request paths must not unwrap lock poison.
pub const LOCK_HYGIENE_SCOPE: &[&str] = &["crates/server/src/"];

/// Frame-handling paths that must not panic: the whole server crate plus
/// the CI-smoke load generator (a panic backtrace mid-smoke hides the
/// actual I/O failure the run hit).
pub const PANIC_HYGIENE_SCOPE: &[&str] =
    &["crates/server/src/", "crates/bench/src/bin/serve_load.rs"];

/// The audited home for serve-side scalar counters. A bare `AtomicU64`
/// anywhere else in the server crate is state the STATS/Prometheus
/// exposition cannot see — it belongs in a registered metric instead.
pub const METRICS_HOME: &str = "crates/server/src/metrics.rs";

/// The crate whose non-test code must keep its scalar counters in
/// [`METRICS_HOME`].
pub const METRICS_SCOPE: &str = "crates/server/src/";

/// How many non-matching lines above a site an annotation comment
/// (`// SAFETY:`, `// ORDERING:`) may sit. Lines that themselves carry
/// the same kind of site extend the window, so one comment can cover a
/// contiguous block of, say, relaxed counter bumps.
const ANNOTATION_WINDOW: usize = 3;

/// One diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (one of [`RULES`] or [`META_RULES`]).
    pub rule: String,
    /// Path relative to the scanned root, `/`-separated.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column of the offending token.
    pub col: usize,
    /// Human-readable explanation.
    pub message: String,
    /// Hard errors ignore waivers entirely.
    pub waivable: bool,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "error[{}]: {}", self.rule, self.message)?;
        write!(f, "  --> {}:{}:{}", self.path, self.line, self.col)
    }
}

/// A waiver that actually suppressed a finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UsedWaiver {
    /// Rule id the waiver names.
    pub rule: String,
    /// Path relative to the scanned root.
    pub path: String,
    /// 1-based line the waiver comment sits on.
    pub line: usize,
    /// The mandatory reason text.
    pub reason: String,
}

/// Outcome of scanning a tree (or a single in-memory file).
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Surviving findings, in (path, line) order.
    pub findings: Vec<Finding>,
    /// Waivers that suppressed at least one finding.
    pub waivers: Vec<UsedWaiver>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Whether the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the machine-readable JSON report.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"col\": {}, \
                 \"message\": {}}}{}\n",
                json_str(&f.rule),
                json_str(&f.path),
                f.line,
                f.col,
                json_str(&f.message),
                if i + 1 < self.findings.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n  \"waivers\": [\n");
        for (i, w) in self.waivers.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"reason\": {}}}{}\n",
                json_str(&w.rule),
                json_str(&w.path),
                w.line,
                json_str(&w.reason),
                if i + 1 < self.waivers.len() { "," } else { "" },
            ));
        }
        out.push_str(&format!(
            "  ],\n  \"files_scanned\": {},\n  \"clean\": {}\n}}\n",
            self.files_scanned,
            self.is_clean()
        ));
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------------
// Lexing: split a source file into per-line (code, comment) halves.
// ---------------------------------------------------------------------------

/// One source line after comment/string separation.
#[derive(Clone, Debug, Default)]
pub struct Line {
    /// The line with comments removed and string/char literal *contents*
    /// blanked to spaces (delimiters kept), so token searches never match
    /// inside text.
    pub code: String,
    /// The concatenated comment text of the line (line comments, doc
    /// comments, and any block-comment portion crossing it).
    pub comment: String,
    /// Whether the line sits inside a `#[cfg(test)]` module or a
    /// `tests/` / `benches/` source file.
    pub in_test: bool,
}

#[derive(PartialEq)]
enum LexState {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    CharLit,
}

/// Splits `content` into analyzed [`Line`]s. `path` decides blanket test
/// status (`tests/`, `benches/`).
pub fn analyze(path: &str, content: &str) -> Vec<Line> {
    let chars: Vec<char> = content.chars().collect();
    let mut lines: Vec<Line> = Vec::new();
    let mut cur = Line::default();
    let mut state = LexState::Code;
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if state == LexState::LineComment {
                state = LexState::Code;
            }
            lines.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match state {
            LexState::Code => {
                let next = chars.get(i + 1).copied().unwrap_or('\0');
                if c == '/' && next == '/' {
                    state = LexState::LineComment;
                    i += 2;
                } else if c == '/' && next == '*' {
                    state = LexState::BlockComment(1);
                    i += 2;
                } else if c == '"' {
                    cur.code.push('"');
                    state = LexState::Str;
                    i += 1;
                } else if (c == 'r' || c == 'b') && is_raw_string_start(&chars, i) {
                    // r"…", r#"…"#, br"…", … — skip prefix up to the quote.
                    let mut j = i;
                    while chars[j] != '"' {
                        cur.code.push(chars[j]);
                        j += 1;
                    }
                    cur.code.push('"');
                    let hashes = chars[i..j].iter().filter(|&&h| h == '#').count() as u32;
                    state = LexState::RawStr(hashes);
                    i = j + 1;
                } else if c == '\'' && is_char_literal_start(&chars, i) {
                    cur.code.push('\'');
                    state = LexState::CharLit;
                    i += 1;
                } else {
                    cur.code.push(c);
                    i += 1;
                }
            }
            LexState::LineComment => {
                cur.comment.push(c);
                i += 1;
            }
            LexState::BlockComment(depth) => {
                let next = chars.get(i + 1).copied().unwrap_or('\0');
                if c == '/' && next == '*' {
                    state = LexState::BlockComment(depth + 1);
                    i += 2;
                } else if c == '*' && next == '/' {
                    state = if depth == 1 {
                        LexState::Code
                    } else {
                        LexState::BlockComment(depth - 1)
                    };
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            LexState::Str => {
                if c == '\\' {
                    cur.code.push(' ');
                    if chars.get(i + 1).copied() != Some('\n') {
                        cur.code.push(' ');
                    }
                    i += 2; // skip the escaped char (or the line joiner)
                } else if c == '"' {
                    cur.code.push('"');
                    state = LexState::Code;
                    i += 1;
                } else {
                    cur.code.push(' ');
                    i += 1;
                }
            }
            LexState::RawStr(hashes) => {
                if c == '"' && raw_string_ends(&chars, i, hashes) {
                    cur.code.push('"');
                    i += 1 + hashes as usize;
                    state = LexState::Code;
                } else {
                    cur.code.push(' ');
                    i += 1;
                }
            }
            LexState::CharLit => {
                if c == '\\' {
                    cur.code.push(' ');
                    cur.code.push(' ');
                    i += 2;
                } else if c == '\'' {
                    cur.code.push('\'');
                    state = LexState::Code;
                    i += 1;
                } else {
                    cur.code.push(' ');
                    i += 1;
                }
            }
        }
    }
    lines.push(cur);
    mark_test_regions(path, &mut lines);
    lines
}

/// `r"` / `r#"` / `br"` / `b"`-style string start at `i`?
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
        if chars.get(j).copied() != Some('r') {
            // b"…" is an ordinary (byte) string; let the Str state take
            // it via the '"' branch on the next character.
            return false;
        }
    }
    if chars.get(j).copied() != Some('r') {
        return false;
    }
    j += 1;
    while chars.get(j).copied() == Some('#') {
        j += 1;
    }
    chars.get(j).copied() == Some('"')
}

/// Does the `"` at `i` close a raw string with `hashes` trailing `#`s?
fn raw_string_ends(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k).copied() == Some('#'))
}

/// Distinguishes a char literal from a lifetime: `'a'` and `'\n'` are
/// literals, `'a` in `&'a str` is not.
fn is_char_literal_start(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1).copied() {
        Some('\\') => true,
        Some(_) => chars.get(i + 2).copied() == Some('\''),
        None => false,
    }
}

/// Marks lines inside `#[cfg(test)]` modules (by brace depth) and whole
/// test-tree files.
fn mark_test_regions(path: &str, lines: &mut [Line]) {
    if path.starts_with("tests/") || path.contains("/tests/") || path.contains("/benches/") {
        for l in lines.iter_mut() {
            l.in_test = true;
        }
        return;
    }
    let mut depth: i64 = 0;
    let mut pending = false; // saw #[cfg(test)], waiting for its block
    let mut region: Option<i64> = None; // depth the test block opened at
    for line in lines.iter_mut() {
        if line.code.contains("#[cfg(test)]") || line.code.contains("#[cfg(all(test") {
            pending = true;
        }
        if region.is_some() {
            line.in_test = true;
        }
        for c in line.code.chars() {
            match c {
                '{' => {
                    if pending && region.is_none() {
                        region = Some(depth);
                        pending = false;
                        line.in_test = true;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if region == Some(depth) {
                        region = None;
                    }
                }
                ';' if pending && region.is_none() => {
                    // `#[cfg(test)] use …;` — the attribute covered a
                    // braceless item, not a module.
                    pending = false;
                }
                _ => {}
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Waivers.
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct Waiver {
    rule: String,
    reason: String,
    /// Line the comment sits on (0-based).
    line: usize,
    /// Line the waiver applies to (0-based): its own line if it carries
    /// code, otherwise the next line that does.
    target: usize,
    used: std::cell::Cell<bool>,
}

/// Parses every waiver comment in `lines`; malformed ones become
/// findings directly.
fn collect_waivers(path: &str, lines: &[Line], findings: &mut Vec<Finding>) -> Vec<Waiver> {
    let mut waivers = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        // A waiver must be the whole comment: strip doc markers and
        // whitespace, then require the `audit:` prefix. (This is what
        // lets documentation *show* the grammar — a quoted example like
        // `//! // audit: allow(…)` keeps its inner `//` and never
        // parses as a live waiver.)
        let trimmed = line
            .comment
            .trim_start_matches(|c: char| c.is_whitespace() || c == '!')
            .trim_start();
        let Some(spec) = trimmed.strip_prefix("audit:") else {
            continue;
        };
        let at = line.comment.len() - trimmed.len();
        let spec = spec.trim();
        match parse_waiver_spec(spec) {
            Ok((rule, reason)) => {
                let target = if line.code.trim().is_empty() {
                    // Standalone comment: covers the next code line.
                    (i + 1..lines.len())
                        .find(|&j| !lines[j].code.trim().is_empty())
                        .unwrap_or(i)
                } else {
                    i
                };
                waivers.push(Waiver {
                    rule,
                    reason,
                    line: i,
                    target,
                    used: std::cell::Cell::new(false),
                });
            }
            Err(why) => findings.push(Finding {
                rule: "malformed-waiver".into(),
                path: path.to_string(),
                line: i + 1,
                col: at + 1,
                message: format!(
                    "malformed audit waiver ({why}); the grammar is \
                     `// audit: allow(<rule>, reason = \"…\")`"
                ),
                waivable: false,
            }),
        }
    }
    waivers
}

/// Parses `allow(<rule>, reason = "…")`.
fn parse_waiver_spec(spec: &str) -> Result<(String, String), String> {
    let rest = spec
        .strip_prefix("allow(")
        .ok_or_else(|| "expected `allow(`".to_string())?;
    let (rule, rest) = rest
        .split_once(',')
        .ok_or_else(|| "expected `, reason = …` after the rule id".to_string())?;
    let rule = rule.trim();
    if !RULES.contains(&rule) {
        return Err(format!(
            "unknown rule `{rule}` (rules: {})",
            RULES.join(", ")
        ));
    }
    let rest = rest.trim();
    let rest = rest
        .strip_prefix("reason")
        .map(str::trim_start)
        .and_then(|r| r.strip_prefix('='))
        .map(str::trim_start)
        .ok_or_else(|| "expected `reason = \"…\"`".to_string())?;
    let rest = rest
        .strip_prefix('"')
        .ok_or_else(|| "reason must be a quoted string".to_string())?;
    let (reason, rest) = rest
        .split_once('"')
        .ok_or_else(|| "unterminated reason string".to_string())?;
    if reason.trim().is_empty() {
        return Err("the reason must not be empty — say *why* the rule is waived".to_string());
    }
    if rest.trim() != ")" {
        return Err("expected `)` after the reason".to_string());
    }
    Ok((rule.to_string(), reason.to_string()))
}

// ---------------------------------------------------------------------------
// Shared token helpers.
// ---------------------------------------------------------------------------

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Byte offsets of whole-word occurrences of `word` in `code`.
fn word_positions(code: &str, word: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(at) = code[from..].find(word) {
        let at = from + at;
        let before_ok = at == 0 || !is_ident_char(code[..at].chars().next_back().unwrap_or(' '));
        let after = code[at + word.len()..].chars().next().unwrap_or(' ');
        if before_ok && !is_ident_char(after) {
            out.push(at);
        }
        from = at + word.len();
    }
    out
}

/// Does line `idx` (or an annotation comment within the window above it)
/// carry `tag`? Lines for which `extends` reports their own site keep
/// the window open, so one comment can cover a contiguous block.
fn has_annotation(lines: &[Line], idx: usize, tag: &str, extends: impl Fn(&Line) -> bool) -> bool {
    if lines[idx].comment.contains(tag) {
        return true;
    }
    let mut budget = ANNOTATION_WINDOW;
    let mut i = idx;
    while i > 0 && budget > 0 {
        i -= 1;
        if lines[i].comment.contains(tag) {
            return true;
        }
        if extends(&lines[i]) {
            budget = ANNOTATION_WINDOW;
        } else if !lines[i].code.trim().is_empty() {
            // Pure comment/blank lines are free: a multi-line rationale
            // must not push its own tag out of the window.
            budget -= 1;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Rules.
// ---------------------------------------------------------------------------

fn rule_unsafe_confinement(path: &str, lines: &[Line], findings: &mut Vec<Finding>) {
    let allowlisted = UNSAFE_ALLOWLIST.contains(&path);
    let has_unsafe = |l: &Line| !word_positions(&l.code, "unsafe").is_empty();
    for (i, line) in lines.iter().enumerate() {
        for at in word_positions(&line.code, "unsafe") {
            if !allowlisted {
                findings.push(Finding {
                    rule: "unsafe-confinement".into(),
                    path: path.to_string(),
                    line: i + 1,
                    col: at + 1,
                    message: format!(
                        "`unsafe` outside the allowlisted modules ({}); move the \
                         code behind a safe abstraction in one of them",
                        UNSAFE_ALLOWLIST.join(", ")
                    ),
                    waivable: true,
                });
            } else if !has_annotation(lines, i, "SAFETY:", has_unsafe) {
                findings.push(Finding {
                    rule: "unsafe-confinement".into(),
                    path: path.to_string(),
                    line: i + 1,
                    col: at + 1,
                    message: "unsafe site without an adjacent `// SAFETY:` comment \
                              stating why it is sound"
                        .into(),
                    waivable: true,
                });
            }
        }
    }
}

fn rule_durable_write(path: &str, lines: &[Line], findings: &mut Vec<Finding>) {
    if path == DURABLE_WRITE_IMPL || !DURABLE_WRITE_SCOPE.iter().any(|p| path.starts_with(p)) {
        return;
    }
    for (i, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for pat in ["File::create(", "OpenOptions::new("] {
            if let Some(at) = line.code.find(pat) {
                findings.push(Finding {
                    rule: "durable-write".into(),
                    path: path.to_string(),
                    line: i + 1,
                    col: at + 1,
                    message: format!(
                        "direct `{}` in durability-relevant code; index/WAL writers \
                         must go through `wal::atomic_write` (tmp + fsync + rename) \
                         so a crash can never leave a torn file",
                        pat.trim_end_matches('(')
                    ),
                    waivable: true,
                });
            }
        }
    }
}

const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
/// Identifiers whose relaxed use is a publish/observe bug, not a style
/// issue.
const RELAXED_FORBIDDEN_NAMES: &[&str] = &["epoch", "publish", "shutdown"];

fn line_has_atomic_ordering(l: &Line) -> bool {
    ATOMIC_ORDERINGS
        .iter()
        .any(|v| l.code.contains(&format!("Ordering::{v}")))
}

fn rule_atomic_ordering(path: &str, lines: &[Line], findings: &mut Vec<Finding>) {
    for (i, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for variant in ATOMIC_ORDERINGS {
            let token = format!("Ordering::{variant}");
            let Some(at) = line.code.find(&token) else {
                continue;
            };
            if *variant == "Relaxed" {
                let code_lower = line.code.to_ascii_lowercase();
                if let Some(name) = RELAXED_FORBIDDEN_NAMES
                    .iter()
                    .find(|n| code_lower.contains(*n))
                {
                    findings.push(Finding {
                        rule: "atomic-ordering".into(),
                        path: path.to_string(),
                        line: i + 1,
                        col: at + 1,
                        message: format!(
                            "`Ordering::Relaxed` on a `{name}`-named operation is a hard \
                             error (publish/observe edges need acquire/release or \
                             stronger); this cannot be waived"
                        ),
                        waivable: false,
                    });
                    continue;
                }
            }
            if !has_annotation(lines, i, "ORDERING:", line_has_atomic_ordering) {
                findings.push(Finding {
                    rule: "atomic-ordering".into(),
                    path: path.to_string(),
                    line: i + 1,
                    col: at + 1,
                    message: format!(
                        "explicit `{token}` without an `// ORDERING:` comment stating \
                         why this ordering is sufficient"
                    ),
                    waivable: true,
                });
            }
        }
    }
}

fn rule_lock_hygiene(path: &str, lines: &[Line], findings: &mut Vec<Finding>) {
    if !LOCK_HYGIENE_SCOPE.iter().any(|p| path.starts_with(p)) {
        return;
    }
    for (i, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        // Whitespace-insensitive so a rustfmt-split chain still matches
        // when the two calls share a line.
        let squashed: String = line.code.chars().filter(|c| !c.is_whitespace()).collect();
        for pat in [".lock().unwrap()", ".read().unwrap()", ".write().unwrap()"] {
            if squashed.contains(pat) {
                findings.push(Finding {
                    rule: "lock-hygiene".into(),
                    path: path.to_string(),
                    line: i + 1,
                    col: 1,
                    message: format!(
                        "`{pat}` in a server request path propagates lock poison into \
                         every later connection; recover the guard like `SwapCell` \
                         does (`unwrap_or_else(PoisonError::into_inner)`) or handle \
                         the poison explicitly"
                    ),
                    waivable: true,
                });
            }
        }
    }
}

fn rule_panic_hygiene(path: &str, lines: &[Line], findings: &mut Vec<Finding>) {
    if !PANIC_HYGIENE_SCOPE.iter().any(|p| path.starts_with(p)) {
        return;
    }
    for (i, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let squashed: String = line.code.chars().filter(|c| !c.is_whitespace()).collect();
        for pat in [
            ".unwrap()",
            ".expect(",
            "panic!(",
            "unreachable!(",
            "todo!(",
            "unimplemented!(",
            "process::abort(",
        ] {
            if let Some(at) = squashed.find(pat) {
                // `debug_assert`-style macros are fine; `unwrap_or*` must
                // not be confused with `.unwrap()` (the paren disambiguates).
                let _ = at;
                findings.push(Finding {
                    rule: "panic-hygiene".into(),
                    path: path.to_string(),
                    line: i + 1,
                    col: line
                        .code
                        .find(pat.trim_start_matches('.'))
                        .map_or(1, |c| c + 1),
                    message: format!(
                        "`{pat}` in a frame-handling/smoke path aborts the process with \
                         a backtrace instead of reporting the failure; return a typed \
                         error (nonzero exit) instead",
                        pat = pat.trim_end_matches('(')
                    ),
                    waivable: true,
                });
            }
        }
    }
}

/// Method names that register a metric with a `pll_obs::Registry`; each
/// takes `(name, help, ...)`.
const METRIC_REGISTRATIONS: &[&str] = &[
    ".counter(",
    ".gauge(",
    ".counter_fn(",
    ".gauge_fn(",
    ".histogram_fn(",
];

fn rule_metrics_hygiene(path: &str, lines: &[Line], findings: &mut Vec<Finding>) {
    // (a) Stray scalar counters: a bare `AtomicU64` in the server crate
    // outside the metrics module is a counter the exposition cannot
    // see. Collections of atomics (`&[AtomicU64]`, `Vec<AtomicU64>` —
    // the per-vertex generation table) are shared state, not metrics,
    // and imports are just names.
    if path.starts_with(METRICS_SCOPE) && path != METRICS_HOME {
        for (i, line) in lines.iter().enumerate() {
            if line.in_test || line.code.trim_start().starts_with("use ") {
                continue;
            }
            for at in word_positions(&line.code, "AtomicU64") {
                let before = &line.code[..at];
                if before.ends_with('[') || before.ends_with("Vec<") {
                    continue;
                }
                findings.push(Finding {
                    rule: "metrics-hygiene".into(),
                    path: path.to_string(),
                    line: i + 1,
                    col: at + 1,
                    message: format!(
                        "bare `AtomicU64` outside {METRICS_HOME}; serve-side counters \
                         belong in `metrics::WorkerMetrics`/`metrics::ServeCounters` \
                         (and a registry registration) so STATS and /metrics can see \
                         them"
                    ),
                    waivable: true,
                });
            }
        }
    }
    // (b) Undocumented metrics: every registry registration carries a
    // help string; an empty one ships a nameplate with no explanation
    // to every scrape consumer. The lexer blanks string interiors but
    // keeps the quotes, so an empty literal is exactly `""`.
    for (i, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for pat in METRIC_REGISTRATIONS {
            let Some(at) = line.code.find(pat) else {
                continue;
            };
            let window = &lines[i..lines.len().min(i + ANNOTATION_WINDOW)];
            if window.iter().any(|l| l.code.contains("\"\"")) {
                findings.push(Finding {
                    rule: "metrics-hygiene".into(),
                    path: path.to_string(),
                    line: i + 1,
                    col: at + 1,
                    message: format!(
                        "metric registered via `{}` with an empty help string; every \
                         metric must document what it measures (the help travels over \
                         STATS and /metrics)",
                        pat.trim_start_matches('.').trim_end_matches('(')
                    ),
                    waivable: true,
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

/// Scans one in-memory source file; `path` must be the repo-relative,
/// `/`-separated path (rule scopes key off it).
pub fn scan_source(path: &str, content: &str) -> Report {
    let lines = analyze(path, content);
    let mut raw = Vec::new();
    let waivers = collect_waivers(path, &lines, &mut raw);
    rule_unsafe_confinement(path, &lines, &mut raw);
    rule_durable_write(path, &lines, &mut raw);
    rule_atomic_ordering(path, &lines, &mut raw);
    rule_lock_hygiene(path, &lines, &mut raw);
    rule_panic_hygiene(path, &lines, &mut raw);
    rule_metrics_hygiene(path, &lines, &mut raw);

    let mut findings: Vec<Finding> = Vec::new();
    for f in raw {
        let line0 = f.line - 1;
        let waiver = waivers
            .iter()
            .find(|w| w.rule == f.rule && (w.target == line0 || w.line == line0));
        match waiver {
            Some(w) if f.waivable => w.used.set(true),
            _ => findings.push(f),
        }
    }
    for w in &waivers {
        if !w.used.get() {
            findings.push(Finding {
                rule: "unused-waiver".into(),
                path: path.to_string(),
                line: w.line + 1,
                col: 1,
                message: format!(
                    "waiver for `{}` suppresses nothing on line {}; delete it (stale \
                     waivers are how escape hatches accumulate)",
                    w.rule,
                    w.target + 1
                ),
                waivable: false,
            });
        }
    }
    findings.sort_by(|a, b| (a.line, a.col, &a.rule).cmp(&(b.line, b.col, &b.rule)));
    Report {
        waivers: waivers
            .iter()
            .filter(|w| w.used.get())
            .map(|w| UsedWaiver {
                rule: w.rule.clone(),
                path: path.to_string(),
                line: w.line + 1,
                reason: w.reason.clone(),
            })
            .collect(),
        findings,
        files_scanned: 1,
    }
}

/// Directories never descended into: build output, VCS metadata, and the
/// `shims/` stand-ins for crates.io dependencies (they are replaced
/// wholesale when a registry is reachable, so auditing them would pin
/// foreign code to local conventions).
const SKIP_DIRS: &[&str] = &["target", ".git", "shims", ".claude"];

/// Recursively collects the workspace's `.rs` files, sorted for
/// deterministic reports.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Scans the tree rooted at `root` (the workspace checkout).
pub fn scan_tree(root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    for path in collect_sources(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect::<Vec<_>>()
            .join("/");
        let content = std::fs::read_to_string(&path)?;
        let file_report = scan_source(&rel, &content);
        report.findings.extend(file_report.findings);
        report.waivers.extend(file_report.waivers);
        report.files_scanned += 1;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexer_separates_comments_and_strings() {
        let src =
            "let x = \"File::create(\"; // File::create(\nlet y = 'a';\n/* unsafe */ let z = 1;\n";
        let lines = analyze("crates/core/src/foo.rs", src);
        assert!(!lines[0].code.contains("File::create"));
        assert!(lines[0].comment.contains("File::create"));
        assert!(lines[1].code.contains("let y ="));
        assert!(!lines[2].code.contains("unsafe"));
        assert!(lines[2].comment.contains("unsafe"));
        assert!(lines[2].code.contains("let z = 1;"));
    }

    #[test]
    fn lexer_handles_raw_strings_and_lifetimes() {
        let src = "let p = r#\"panic!( .unwrap() \"#;\nfn f<'a>(x: &'a str) -> &'a str { x }\nlet c = '\\'';\n";
        let lines = analyze("crates/server/src/foo.rs", src);
        assert!(!lines[0].code.contains("panic!"));
        assert!(!lines[0].code.contains("unwrap"));
        assert!(lines[1].code.contains("fn f<'a>"));
        assert!(lines[2].code.starts_with("let c = '"));
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let lines = analyze("crates/core/src/foo.rs", src);
        assert!(!lines[0].in_test);
        assert!(lines[2].in_test);
        assert!(lines[3].in_test);
        assert!(!lines[5].in_test, "region must close at its brace");
    }

    #[test]
    fn tests_dir_is_all_test() {
        let lines = analyze("tests/foo.rs", "fn x() {}\n");
        assert!(lines[0].in_test);
    }

    #[test]
    fn word_positions_respect_boundaries() {
        assert_eq!(word_positions("unsafe fn f()", "unsafe"), vec![0]);
        assert!(word_positions("#![forbid(unsafe_code)]", "unsafe").is_empty());
        assert!(word_positions("my_unsafe", "unsafe").is_empty());
    }
}
