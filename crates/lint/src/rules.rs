//! The rule engine: every workspace contract, as a token-stream check.
//!
//! Rules are line-level and waivable (`// lint:allow(<rule>): <reason>`
//! on the violating line or the line above — the reason is mandatory).
//! Diagnostics carry stable rule ids, so CI output and waivers stay
//! meaningful across refactors.

use crate::lexer::{lex, matching, Lexed, Tok, Token};
use crate::{knobs, metrics};

/// `no-panic-in-serving`: no `.unwrap()` / `.expect()` / `panic!` /
/// `unreachable!` / `todo!` / `unimplemented!` in non-test serving code
/// (`crates/service`, `src/bin`) — the structured-error contract.
pub const NO_PANIC_IN_SERVING: &str = "no-panic-in-serving";
/// `poison-safe-locks`: lock acquisitions in the concurrency layers must
/// route through `mq_store::lock`, never bare `.unwrap()`/`.expect()`
/// or inline `PoisonError` recovery.
pub const POISON_SAFE_LOCKS: &str = "poison-safe-locks";
/// `no-rc-refcell-in-sendsync`: no `Rc`/`RefCell`/`Cell`/`UnsafeCell`
/// in the Send+Sync layers (store, service, engine).
pub const NO_RC_REFCELL: &str = "no-rc-refcell-in-sendsync";
/// `knob-registry`: every `MQ_*` literal must be declared in the knob
/// registry, no dead entries, docs table in sync, and every `MQ_*` name
/// in ARCHITECTURE.md / PERFORMANCE.md declared.
pub const KNOB_REGISTRY: &str = "knob-registry";
/// `metric-registry`: every `mq_*` metric literal must be declared in
/// the metric registry, no dead entries, docs table in sync.
pub const METRIC_REGISTRY: &str = "metric-registry";
/// `err-code-stability`: emitted `err <code>` strings must exactly match
/// the documented contract in ARCHITECTURE.md.
pub const ERR_CODE_STABILITY: &str = "err-code-stability";
/// `faultpoint-coverage`: declared serving-boundary functions must
/// contain their fault-injection sites.
pub const FAULTPOINT_COVERAGE: &str = "faultpoint-coverage";
/// `no-deprecated-calls`: nothing calls an item carrying `#[deprecated]`.
pub const NO_DEPRECATED_CALLS: &str = "no-deprecated-calls";
/// `bad-waiver`: a waiver comment with no reason, or naming no known rule.
pub const BAD_WAIVER: &str = "bad-waiver";

/// Every rule id, for waiver validation and `--list-rules`.
pub const ALL_RULES: &[&str] = &[
    NO_PANIC_IN_SERVING,
    POISON_SAFE_LOCKS,
    NO_RC_REFCELL,
    KNOB_REGISTRY,
    METRIC_REGISTRY,
    ERR_CODE_STABILITY,
    FAULTPOINT_COVERAGE,
    NO_DEPRECATED_CALLS,
    BAD_WAIVER,
];

/// One source file handed to the engine: a workspace-relative path (with
/// forward slashes) plus its text.
pub struct SourceFile {
    /// Workspace-relative path, e.g. `crates/service/src/net.rs`.
    pub path: String,
    /// Full file contents.
    pub text: String,
}

/// Everything the engine lints in one run.
pub struct Workspace {
    /// The `.rs` files.
    pub files: Vec<SourceFile>,
    /// ARCHITECTURE.md contents (`None` skips the err-code doc check —
    /// fixture runs; the CLI always supplies it).
    pub architecture_md: Option<String>,
    /// PERFORMANCE.md contents (`None` skips the knob-table doc check).
    pub performance_md: Option<String>,
    /// Whether whole-workspace completeness checks run (dead registry
    /// entries, declared faultpoint files actually present). True for
    /// real runs, false for single-fixture runs.
    pub check_completeness: bool,
}

/// One finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Stable rule id.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Declared serving-boundary fault sites: (file, function, sites).
/// The boundaries poll their sites through per-server `CountedSite`
/// handles (so fired/polled counts land in the instance's metric
/// registry); the site literals live where the handles are constructed,
/// so the rule anchors there — deleting a handle (and with it the
/// boundary poll) trips the check.
const FAULTPOINTS: &[(&str, &str, &[&str])] = &[
    (
        // NetCounters::new — the only `fn new` in net.rs.
        "crates/service/src/net.rs",
        "new",
        &["read.delay", "read.err", "write.delay", "write.err"],
    ),
    (
        "crates/service/src/session.rs",
        "with_config",
        &["search.panic"],
    ),
];

/// The file allowed to mention `PoisonError`: the recovery helper itself
/// (its own lines carry audited waivers too, but path-level knowledge
/// keeps the diagnostics meaningful if the file is renamed).
const LOCK_HELPER: &str = "crates/store/src/lock.rs";

fn in_serving_scope(path: &str) -> bool {
    path.starts_with("crates/service/src/") || path.starts_with("src/bin/")
}

fn in_sendsync_scope(path: &str) -> bool {
    path.starts_with("crates/store/src/")
        || path.starts_with("crates/service/src/")
        || path.starts_with("crates/core/src/engine/")
}

fn ident(t: &Token) -> Option<&str> {
    match &t.tok {
        Tok::Ident(s) => Some(s.as_str()),
        _ => None,
    }
}

fn is_punct(t: Option<&Token>, c: char) -> bool {
    matches!(t.map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

/// Lint a whole workspace. Waivers are already applied; what comes back
/// is the set of *unwaivered* findings.
pub fn lint(ws: &Workspace) -> Vec<Diagnostic> {
    let lexed: Vec<(usize, Lexed)> = ws
        .files
        .iter()
        .enumerate()
        .map(|(i, f)| (i, lex(&f.text)))
        .collect();
    let mut diags = Vec::new();
    for (i, lx) in &lexed {
        let path = &ws.files[*i].path;
        check_waiver_syntax(path, lx, &mut diags);
        if in_serving_scope(path) {
            check_no_panic(path, lx, &mut diags);
        }
        if in_sendsync_scope(path) {
            check_poison_safe_locks(path, lx, &mut diags);
            check_no_rc_refcell(path, lx, &mut diags);
        }
    }
    check_knob_registry(ws, &lexed, &mut diags);
    check_metric_registry(ws, &lexed, &mut diags);
    check_err_codes(ws, &lexed, &mut diags);
    check_faultpoints(ws, &lexed, &mut diags);
    check_no_deprecated_calls(ws, &lexed, &mut diags);
    // Apply waivers (doc-file diagnostics have no waiver channel).
    diags.retain(|d| {
        let Some((i, lx)) = lexed.iter().find(|(i, _)| ws.files[*i].path == d.path) else {
            return true;
        };
        let _ = i;
        !lx.waived(d.line, d.rule)
    });
    diags.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    diags
}

/// `bad-waiver`: reason-less waivers and unknown rule ids are findings
/// themselves — a waiver must stay auditable.
fn check_waiver_syntax(path: &str, lx: &Lexed, out: &mut Vec<Diagnostic>) {
    for w in &lx.waivers {
        if !ALL_RULES.contains(&w.rule.as_str()) {
            out.push(Diagnostic {
                path: path.to_string(),
                line: w.line,
                rule: BAD_WAIVER,
                message: format!("waiver names unknown rule `{}`", w.rule),
            });
        } else if w.reason.is_empty() {
            out.push(Diagnostic {
                path: path.to_string(),
                line: w.line,
                rule: BAD_WAIVER,
                message: format!(
                    "waiver for `{}` has no reason — write `// lint:allow({}): <why>`",
                    w.rule, w.rule
                ),
            });
        }
    }
}

fn check_no_panic(path: &str, lx: &Lexed, out: &mut Vec<Diagnostic>) {
    let toks = &lx.tokens;
    for k in 0..toks.len() {
        if lx.is_test[k] {
            continue;
        }
        // `.unwrap(` / `.expect(`
        if is_punct(toks.get(k), '.') {
            if let Some(name) = toks.get(k + 1).and_then(ident) {
                if matches!(name, "unwrap" | "expect") && is_punct(toks.get(k + 2), '(') {
                    out.push(Diagnostic {
                        path: path.to_string(),
                        line: toks[k + 1].line,
                        rule: NO_PANIC_IN_SERVING,
                        message: format!(
                            ".{name}() in serving code — return a structured error instead"
                        ),
                    });
                }
            }
        }
        // `panic!` & friends
        if let Some(name) = ident(&toks[k]) {
            if matches!(name, "panic" | "unreachable" | "todo" | "unimplemented")
                && is_punct(toks.get(k + 1), '!')
            {
                out.push(Diagnostic {
                    path: path.to_string(),
                    line: toks[k].line,
                    rule: NO_PANIC_IN_SERVING,
                    message: format!("{name}! in serving code — return a structured error instead"),
                });
            }
        }
    }
}

fn check_poison_safe_locks(path: &str, lx: &Lexed, out: &mut Vec<Diagnostic>) {
    let toks = &lx.tokens;
    for k in 0..toks.len() {
        if lx.is_test[k] {
            continue;
        }
        // `PoisonError` outside the helper module.
        if ident(&toks[k]) == Some("PoisonError") && path != LOCK_HELPER {
            out.push(Diagnostic {
                path: path.to_string(),
                line: toks[k].line,
                rule: POISON_SAFE_LOCKS,
                message: "PoisonError handled outside mq_store::lock — use \
                          lock_recover/read_recover/write_recover/wait_recover"
                    .to_string(),
            });
        }
        if !is_punct(toks.get(k), '.') {
            continue;
        }
        let Some(name) = toks.get(k + 1).and_then(ident) else {
            continue;
        };
        if !is_punct(toks.get(k + 2), '(') {
            continue;
        }
        // `.unwrap_or_else(… into_inner …)` — inline poison recovery.
        if name == "unwrap_or_else" {
            if let Some(close) = matching(toks, k + 2, '(', ')') {
                if toks[k + 3..close]
                    .iter()
                    .any(|t| ident(t) == Some("into_inner"))
                {
                    out.push(Diagnostic {
                        path: path.to_string(),
                        line: toks[k + 1].line,
                        rule: POISON_SAFE_LOCKS,
                        message: "inline poison recovery — route through \
                                  mq_store::lock instead"
                            .to_string(),
                    });
                }
            }
            continue;
        }
        // `.lock()/.read()/.write()/.into_inner()` (no args) or
        // `.wait(…)`, followed by `.unwrap()` / `.expect(…)`.
        let zero_arg = matches!(name, "lock" | "read" | "write" | "into_inner");
        if !zero_arg && name != "wait" {
            continue;
        }
        if zero_arg && !is_punct(toks.get(k + 3), ')') {
            continue; // has arguments: not a lock acquisition
        }
        let Some(close) = matching(toks, k + 2, '(', ')') else {
            continue;
        };
        if is_punct(toks.get(close + 1), '.') {
            if let Some(m) = toks.get(close + 2).and_then(ident) {
                if matches!(m, "unwrap" | "expect") {
                    out.push(Diagnostic {
                        path: path.to_string(),
                        line: toks[close + 2].line,
                        rule: POISON_SAFE_LOCKS,
                        message: format!(
                            ".{name}().{m}() — a poisoned lock panics the whole layer; \
                             use mq_store::lock::{}",
                            match name {
                                "lock" => "lock_recover",
                                "read" => "read_recover",
                                "write" => "write_recover",
                                "wait" => "wait_recover",
                                _ => "unpoison",
                            }
                        ),
                    });
                }
            }
        }
    }
}

fn check_no_rc_refcell(path: &str, lx: &Lexed, out: &mut Vec<Diagnostic>) {
    for (k, t) in lx.tokens.iter().enumerate() {
        if lx.is_test[k] {
            continue;
        }
        if let Some(name) = ident(t) {
            if matches!(name, "Rc" | "RefCell" | "Cell" | "UnsafeCell") {
                out.push(Diagnostic {
                    path: path.to_string(),
                    line: t.line,
                    rule: NO_RC_REFCELL,
                    message: format!(
                        "{name} in a Send+Sync layer — this code crosses worker \
                         threads; use Arc/Mutex/atomics"
                    ),
                });
            }
        }
    }
}

fn check_knob_registry(ws: &Workspace, lexed: &[(usize, Lexed)], out: &mut Vec<Diagnostic>) {
    let mut used: Vec<&str> = Vec::new();
    for (i, lx) in lexed {
        let path = &ws.files[*i].path;
        if path.ends_with("lint/src/knobs.rs") {
            continue; // the registry itself doesn't count as a use
        }
        for (k, t) in lx.tokens.iter().enumerate() {
            if lx.is_test[k] {
                continue;
            }
            let Tok::Str(s) = &t.tok else { continue };
            if !is_knob_name(s) {
                continue;
            }
            match knobs::lookup(s) {
                Some(k) => used.push(k.name),
                None => out.push(Diagnostic {
                    path: path.clone(),
                    line: t.line,
                    rule: KNOB_REGISTRY,
                    message: format!(
                        "`{s}` is not in the knob registry — declare it in \
                         crates/lint/src/knobs.rs (name, default, purpose)"
                    ),
                }),
            }
        }
    }
    if ws.check_completeness {
        for k in knobs::KNOBS {
            if !used.contains(&k.name) {
                out.push(Diagnostic {
                    path: "crates/lint/src/knobs.rs".to_string(),
                    line: 1,
                    rule: KNOB_REGISTRY,
                    message: format!(
                        "dead registry entry `{}` — no non-test code reads it",
                        k.name
                    ),
                });
            }
        }
    }
    // Docs sync: the PERFORMANCE.md table must equal the generated one.
    if let Some(perf) = &ws.performance_md {
        match marker_block(perf, "knob-table") {
            Some((line, body)) => {
                if body.trim() != knobs::render_table().trim() {
                    out.push(Diagnostic {
                        path: "PERFORMANCE.md".to_string(),
                        line,
                        rule: KNOB_REGISTRY,
                        message: "knob table is out of sync with the registry — \
                                  run `cargo run -p mq-lint -- --fix-docs`"
                            .to_string(),
                    });
                }
            }
            None => out.push(Diagnostic {
                path: "PERFORMANCE.md".to_string(),
                line: 1,
                rule: KNOB_REGISTRY,
                message: "missing `<!-- knob-table:begin -->` / `<!-- knob-table:end -->` \
                          markers"
                    .to_string(),
            }),
        }
    }
    // Docs name only registered knobs: a deleted knob's name left in a
    // contract document tells readers to set something nothing reads.
    for (doc_path, doc) in [
        ("ARCHITECTURE.md", &ws.architecture_md),
        ("PERFORMANCE.md", &ws.performance_md),
    ] {
        let Some(doc) = doc else { continue };
        for (n, line) in doc.lines().enumerate() {
            // Identifier-sized words, so `MQ_X=0` and `` `MQ_X` `` both
            // yield `MQ_X`.
            let words = line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'));
            for name in words.filter(|w| is_knob_name(w)) {
                if knobs::lookup(name).is_none() {
                    out.push(Diagnostic {
                        path: doc_path.to_string(),
                        line: n + 1,
                        rule: KNOB_REGISTRY,
                        message: format!(
                            "`{name}` is named in {doc_path} but is not in the knob \
                             registry — drop the stale name or declare it in \
                             crates/lint/src/knobs.rs"
                        ),
                    });
                }
            }
        }
    }
}

fn check_metric_registry(ws: &Workspace, lexed: &[(usize, Lexed)], out: &mut Vec<Diagnostic>) {
    let mut used: Vec<&str> = Vec::new();
    for (i, lx) in lexed {
        let path = &ws.files[*i].path;
        if path.ends_with("lint/src/metrics.rs") {
            continue; // the registry itself doesn't count as a use
        }
        for (k, t) in lx.tokens.iter().enumerate() {
            if lx.is_test[k] {
                continue;
            }
            let Tok::Str(s) = &t.tok else { continue };
            if !is_metric_name(s) {
                continue;
            }
            match metrics::lookup(s) {
                Some(m) => used.push(m.name),
                None => out.push(Diagnostic {
                    path: path.clone(),
                    line: t.line,
                    rule: METRIC_REGISTRY,
                    message: format!(
                        "`{s}` is not in the metric registry — declare it in \
                         crates/lint/src/metrics.rs (name, kind, purpose)"
                    ),
                }),
            }
        }
    }
    if ws.check_completeness {
        for m in metrics::METRICS {
            if !used.contains(&m.name) {
                out.push(Diagnostic {
                    path: "crates/lint/src/metrics.rs".to_string(),
                    line: 1,
                    rule: METRIC_REGISTRY,
                    message: format!(
                        "dead registry entry `{}` — no non-test code registers it",
                        m.name
                    ),
                });
            }
        }
    }
    // Docs sync: the PERFORMANCE.md table must equal the generated one.
    if let Some(perf) = &ws.performance_md {
        match marker_block(perf, "metric-table") {
            Some((line, body)) => {
                if body.trim() != metrics::render_table().trim() {
                    out.push(Diagnostic {
                        path: "PERFORMANCE.md".to_string(),
                        line,
                        rule: METRIC_REGISTRY,
                        message: "metric table is out of sync with the registry — \
                                  run `cargo run -p mq-lint -- --fix-docs`"
                            .to_string(),
                    });
                }
            }
            None => out.push(Diagnostic {
                path: "PERFORMANCE.md".to_string(),
                line: 1,
                rule: METRIC_REGISTRY,
                message: "missing `<!-- metric-table:begin -->` / `<!-- metric-table:end -->` \
                          markers"
                    .to_string(),
            }),
        }
    }
}

/// A metric-name-shaped literal: `mq_<family>_<metric>` — lowercase
/// snake case with at least two underscores, so crate-name literals
/// (`mq_obs`) and unrelated strings don't trip the rule.
fn is_metric_name(s: &str) -> bool {
    s.starts_with("mq_")
        && s.bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        && s.bytes().filter(|&b| b == b'_').count() >= 2
}

fn is_knob_name(s: &str) -> bool {
    s.len() > 3
        && s.starts_with("MQ_")
        && s.chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// Extract the block between `<!-- name:begin -->` and `<!-- name:end -->`.
/// Returns (1-based line of the begin marker, block body).
fn marker_block(doc: &str, name: &str) -> Option<(usize, String)> {
    let begin = format!("<!-- {name}:begin -->");
    let end = format!("<!-- {name}:end -->");
    let mut body = String::new();
    let mut begin_line = None;
    for (n, l) in doc.lines().enumerate() {
        if l.trim() == begin {
            begin_line = Some(n + 1);
            body.clear();
            continue;
        }
        if l.trim() == end {
            return begin_line.map(|bl| (bl, body));
        }
        if begin_line.is_some() {
            body.push_str(l);
            body.push('\n');
        }
    }
    None
}

fn check_err_codes(ws: &Workspace, lexed: &[(usize, Lexed)], out: &mut Vec<Diagnostic>) {
    // Collect every code the protocol/transport layer can emit.
    let mut emitted: Vec<(String, String, usize)> = Vec::new(); // (code, path, line)
    for (i, lx) in lexed {
        let path = &ws.files[*i].path;
        if !(path.ends_with("crates/service/src/protocol.rs")
            || path.ends_with("crates/service/src/net.rs"))
        {
            continue;
        }
        let toks = &lx.tokens;
        for k in 0..toks.len() {
            if lx.is_test[k] {
                continue;
            }
            // `Reply::err("<code>", …)` — literal first argument.
            if ident(&toks[k]) == Some("err")
                && is_punct(toks.get(k + 1), '(')
                && k >= 2
                && is_punct(toks.get(k - 1), ':')
            {
                if let Some(Tok::Str(code)) = toks.get(k + 2).map(|t| &t.tok) {
                    if is_code_like(code) {
                        emitted.push((code.clone(), path.clone(), toks[k + 2].line));
                    }
                }
            }
            // Pre-rendered `"err <code> …"` wire literals.
            if let Tok::Str(s) = &toks[k].tok {
                if let Some(rest) = s.strip_prefix("err ") {
                    if let Some(code) = rest.split_whitespace().next() {
                        if is_code_like(code) {
                            emitted.push((code.to_string(), path.clone(), toks[k].line));
                        }
                    }
                }
            }
            // Every literal inside `fn error_code` is a code.
            if ident(&toks[k]) == Some("fn")
                && toks.get(k + 1).and_then(ident) == Some("error_code")
            {
                if let Some(open) = toks[k..]
                    .iter()
                    .position(|t| t.tok == Tok::Punct('{'))
                    .map(|p| p + k)
                {
                    if let Some(close) = matching(toks, open, '{', '}') {
                        for t in &toks[open..close] {
                            if let Tok::Str(code) = &t.tok {
                                if is_code_like(code) {
                                    emitted.push((code.clone(), path.clone(), t.line));
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    let Some(arch) = &ws.architecture_md else {
        return;
    };
    let Some((marker_line, body)) = marker_block(arch, "err-codes") else {
        out.push(Diagnostic {
            path: "ARCHITECTURE.md".to_string(),
            line: 1,
            rule: ERR_CODE_STABILITY,
            message: "missing `<!-- err-codes:begin -->` / `<!-- err-codes:end -->` \
                      markers around the error-code contract"
                .to_string(),
        });
        return;
    };
    let documented: Vec<String> = backticked(&body);
    for (code, path, line) in &emitted {
        if !documented.contains(code) {
            out.push(Diagnostic {
                path: path.clone(),
                line: *line,
                rule: ERR_CODE_STABILITY,
                message: format!(
                    "error code `{code}` is emitted but not documented in \
                     ARCHITECTURE.md's err-codes block — codes are a stable contract"
                ),
            });
        }
    }
    if ws.check_completeness {
        for code in &documented {
            if !emitted.iter().any(|(c, _, _)| c == code) {
                out.push(Diagnostic {
                    path: "ARCHITECTURE.md".to_string(),
                    line: marker_line,
                    rule: ERR_CODE_STABILITY,
                    message: format!(
                        "documented error code `{code}` is never emitted by \
                         protocol.rs/net.rs — stale contract entry"
                    ),
                });
            }
        }
    }
}

fn is_code_like(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().is_some_and(|c| c.is_ascii_lowercase())
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
}

/// All `` `backticked` `` tokens in `text`.
fn backticked(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(start) = rest.find('`') {
        let Some(len) = rest[start + 1..].find('`') else {
            break;
        };
        out.push(rest[start + 1..start + 1 + len].to_string());
        rest = &rest[start + 1 + len + 1..];
    }
    out
}

fn check_faultpoints(ws: &Workspace, lexed: &[(usize, Lexed)], out: &mut Vec<Diagnostic>) {
    for (file, func, sites) in FAULTPOINTS {
        let Some((i, lx)) = lexed
            .iter()
            .find(|(i, _)| ws.files[*i].path.ends_with(file))
        else {
            if ws.check_completeness {
                out.push(Diagnostic {
                    path: (*file).to_string(),
                    line: 1,
                    rule: FAULTPOINT_COVERAGE,
                    message: format!("declared faultpoint file missing from workspace ({func})"),
                });
            }
            continue;
        };
        let path = &ws.files[*i].path;
        let toks = &lx.tokens;
        let mut found_fn = false;
        for k in 0..toks.len() {
            if ident(&toks[k]) == Some("fn") && toks.get(k + 1).and_then(ident) == Some(*func) {
                found_fn = true;
                let body: &[Token] = toks[k..]
                    .iter()
                    .position(|t| t.tok == Tok::Punct('{'))
                    .map(|p| p + k)
                    .and_then(|open| matching(toks, open, '{', '}').map(|close| &toks[open..close]))
                    .unwrap_or(&[]);
                for site in *sites {
                    let present = body
                        .iter()
                        .any(|t| matches!(&t.tok, Tok::Str(s) if s == site));
                    if !present {
                        out.push(Diagnostic {
                            path: path.clone(),
                            line: toks[k].line,
                            rule: FAULTPOINT_COVERAGE,
                            message: format!(
                                "`{func}` lost its `{site}` fault-injection site — \
                                 the chaos harness depends on it"
                            ),
                        });
                    }
                }
                break;
            }
        }
        if !found_fn {
            out.push(Diagnostic {
                path: path.clone(),
                line: 1,
                rule: FAULTPOINT_COVERAGE,
                message: format!("declared serving-boundary fn `{func}` not found in {file}"),
            });
        }
    }
}

fn check_no_deprecated_calls(ws: &Workspace, lexed: &[(usize, Lexed)], out: &mut Vec<Diagnostic>) {
    // Pass 1: find `#[deprecated…]` items and their definition spans.
    struct Deprecated {
        name: String,
        file: usize,
        span: (usize, usize), // token index range, inclusive
    }
    let mut items: Vec<Deprecated> = Vec::new();
    for (i, lx) in lexed {
        let toks = &lx.tokens;
        let mut k = 0usize;
        while k < toks.len() {
            let is_attr_open = toks[k].tok == Tok::Punct('#') && is_punct(toks.get(k + 1), '[');
            if !is_attr_open {
                k += 1;
                continue;
            }
            let Some(attr_end) = matching(toks, k + 1, '[', ']') else {
                break;
            };
            let deprecated = toks[k + 2..attr_end]
                .iter()
                .any(|t| ident(t) == Some("deprecated"));
            if !deprecated {
                k = attr_end + 1;
                continue;
            }
            // Skip further attributes, then find the item keyword + name.
            let mut j = attr_end + 1;
            while toks.get(j).map(|t| &t.tok) == Some(&Tok::Punct('#'))
                && is_punct(toks.get(j + 1), '[')
            {
                match matching(toks, j + 1, '[', ']') {
                    Some(e) => j = e + 1,
                    None => break,
                }
            }
            let mut name = None;
            while j < toks.len() {
                if let Some(kw) = ident(&toks[j]) {
                    if matches!(
                        kw,
                        "fn" | "struct" | "enum" | "trait" | "type" | "const" | "static" | "mod"
                    ) {
                        name = toks.get(j + 1).and_then(ident).map(str::to_string);
                        break;
                    }
                }
                if matches!(toks[j].tok, Tok::Punct('{') | Tok::Punct(';')) {
                    break;
                }
                j += 1;
            }
            let Some(name) = name else {
                k = attr_end + 1;
                continue;
            };
            // Item extent: the matching `}` of its first brace, or `;`.
            let mut end = j;
            while end < toks.len() {
                match &toks[end].tok {
                    Tok::Punct(';') => break,
                    Tok::Punct('{') => {
                        end = matching(toks, end, '{', '}').unwrap_or(toks.len() - 1);
                        break;
                    }
                    _ => end += 1,
                }
            }
            items.push(Deprecated {
                name,
                file: *i,
                span: (k, end),
            });
            k = end + 1;
        }
    }
    if items.is_empty() {
        return;
    }
    // Pass 2: flag every non-test use outside the definition span.
    for (i, lx) in lexed {
        for (k, t) in lx.tokens.iter().enumerate() {
            if lx.is_test[k] {
                continue;
            }
            let Some(name) = ident(t) else { continue };
            for item in &items {
                if item.name != name {
                    continue;
                }
                if item.file == *i && k >= item.span.0 && k <= item.span.1 {
                    continue; // the definition itself
                }
                out.push(Diagnostic {
                    path: ws.files[*i].path.clone(),
                    line: t.line,
                    rule: NO_DEPRECATED_CALLS,
                    message: format!(
                        "`{name}` is #[deprecated] — migrate to its replacement \
                         instead of suppressing the warning"
                    ),
                });
            }
        }
    }
}
