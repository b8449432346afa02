//! `asrs-interlock` — static lock-order / deadlock analysis for the
//! generational engine.
//!
//! The engine's concurrency protocol is small but load-bearing: an
//! epoch-swap `RwLock`, a mutation-serializing `Mutex`, sharded query
//! cache locks, the server worker queue and metrics locks, and the WAL
//! critical section.  This crate extracts that protocol *from the
//! source* with the same dependency-free, string/scope-aware scanning
//! style as `asrs-lint`, and checks it:
//!
//! * every `Mutex` / `RwLock` acquisition site in `crates/core`,
//!   `crates/server` and `crates/persist` is found and mapped to a
//!   stable lock identity (the [`LOCK_ALIASES`] table; unaliased locks
//!   get a `crate.file.symbol` identity so new locks surface in review);
//! * guard-nesting inside each function, plus a call-edge
//!   approximation across functions (a call is followed only when the
//!   callee name has exactly one non-test definition in the scanned
//!   crates, or a curated [`CALL_OVERRIDES`] entry disambiguates it),
//!   yields the acquisition-order edge graph;
//! * **(a)** cycles in that graph are reported as potential deadlocks;
//! * **(b)** guards held across blocking operations (`fsync`, socket
//!   or file I/O, channel `recv`, `mutate::publish`) are reported
//!   unless escaped with a budgeted `// interlock:allow(reason)`;
//! * **(c)** named guards whose scope extends past their last use and
//!   across a blocking operation or another acquisition — the shape of
//!   the PR 7 worker-queue bug — are reported as stale scopes
//!   (underscore-named guards like `_mutations_paused` declare an
//!   intentional hold and are exempt);
//! * the committed manifest `crates/interlock/LOCK_ORDER.md` is
//!   regenerated and diffed, so any new lock or edge is an explicit
//!   review event (`cargo run -p asrs-lint -- --update-lock-order`
//!   refreshes it).
//!
//! The dynamic counterpart lives in `asrs_core::sync::model`: a
//! deterministic-schedule explorer that runs the same protocol through
//! every interleaving under `--features model`, with the declared order
//! mirroring this crate's manifest.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// Crates whose sources participate in the lock graph.
pub const SCANNED_CRATES: &[&str] = &["crates/core", "crates/server", "crates/persist"];

/// Where the committed manifest lives, relative to the workspace root.
pub const MANIFEST_PATH: &str = "crates/interlock/LOCK_ORDER.md";

/// Ceiling on `interlock:allow` escapes.  Raising it is a reviewed
/// change to this file, not a drive-by comment.
pub const ALLOW_BUDGET: usize = 12;

/// Stable lock identities: (path suffix, receiver symbol, identity).
/// A lock acquired through a symbol not listed here gets the automatic
/// identity `crate.file.symbol`, which lands in the manifest and makes
/// the new lock an explicit review event.
pub const LOCK_ALIASES: &[(&str, &str, &str)] = &[
    ("core/src/engine.rs", "current", "engine.epoch"),
    ("core/src/engine.rs", "mutator", "engine.mutator"),
    ("core/src/mutate.rs", "mutator", "engine.mutator"),
    ("core/src/mutate.rs", "commit_queue", "engine.commit_queue"),
    ("core/src/audit.rs", "mutator", "engine.mutator"),
    ("core/src/cache.rs", "shard_of", "cache.shard"),
    ("core/src/cache.rs", "s", "cache.shard"),
    ("core/src/cache.rs", "shard", "cache.shard"),
    ("core/src/cache.rs", "inflight", "cache.inflight"),
    ("core/src/cache.rs", "slot", "cache.flight_slot"),
    ("core/src/shard.rs", "slots", "shard.scatter_slot"),
    ("server/src/server.rs", "rx", "server.worker_queue"),
    ("server/src/metrics.rs", "search", "server.metrics"),
    ("persist/src/wal.rs", "inner", "persist.wal"),
    ("persist/src/store.rs", "counters", "store.counters"),
];

/// Call-resolution overrides: (caller path suffix, callee name, target).
/// `Some("name@path suffix")` pins an otherwise ambiguous name to one
/// definition; `None` suppresses resolution entirely.
pub const CALL_OVERRIDES: &[(&str, &str, Option<&str>)] = &[
    // `DurabilitySink::log_mutation` (impl in store.rs) forwards to
    // `Wal::append`; the bare name `append` is ambiguous with the
    // engine/mutate/handle append methods.
    (
        "persist/src/store.rs",
        "append",
        Some("append@crates/persist/src/wal.rs"),
    ),
    // `mutate::publish` calls the attached sink's `log_batch`; the name is
    // ambiguous between the trait default (engine.rs) and the real
    // batched-fsync impl (store.rs) — pin it to the impl so the
    // `engine.mutator → persist.wal` edge stays on the graph.
    (
        "core/src/mutate.rs",
        "log_batch",
        Some("log_batch@crates/persist/src/store.rs"),
    ),
    // `PersistHandle::log_batch` forwards to `Wal::append_batch`; the bare
    // name is ambiguous with the engine/mutate/handle batch-append
    // methods.
    (
        "persist/src/store.rs",
        "append_batch",
        Some("append_batch@crates/persist/src/wal.rs"),
    ),
];

/// Operations a guard must not be held across without a justification
/// (check (b)).  `publish(` is the engine's epoch-swap + WAL write path.
pub const BLOCKING_TOKENS: &[&str] = &[
    "sync_data(",
    "sync_all(",
    ".recv()",
    "recv_timeout(",
    ".accept()",
    "read_exact(",
    "read_to_end(",
    "read_line(",
    "write_all(",
    ".flush()",
    "rename(",
    "File::create(",
    "remove_file(",
    "publish(",
];

/// What a finding is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Check (a): a cycle in the acquisition-order graph.
    OrderCycle,
    /// Check (b): a guard held across a blocking operation.
    BlockingHold,
    /// Check (c): a guard whose scope outlives its last use across a
    /// blocking operation or another acquisition.
    StaleScope,
    /// The committed `LOCK_ORDER.md` does not match the regenerated
    /// graph.
    ManifestDrift,
    /// The `interlock:allow` budget is exceeded, or an allow suppresses
    /// nothing.
    AllowBudget,
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Category::OrderCycle => "lock-order-cycle",
            Category::BlockingHold => "blocking-hold",
            Category::StaleScope => "stale-guard-scope",
            Category::ManifestDrift => "manifest-drift",
            Category::AllowBudget => "allow-budget",
        })
    }
}

/// One reported problem.
#[derive(Debug)]
pub struct Finding {
    /// File the finding is anchored to.
    pub file: PathBuf,
    /// 1-based line (0 for file-level findings).
    pub line: usize,
    /// Which check fired.
    pub category: Category,
    /// Human-readable description.
    pub message: String,
}

/// The result of one analysis run.
#[derive(Debug)]
pub struct Report {
    /// Everything the checks flagged, in file/line order.
    pub findings: Vec<Finding>,
    /// The regenerated manifest text (compare/commit as
    /// [`MANIFEST_PATH`]).
    pub manifest: String,
    /// Distinct lock identities.
    pub lock_count: usize,
    /// Acquisition sites found.
    pub site_count: usize,
    /// Acquisition-order edges.
    pub edge_count: usize,
    /// `interlock:allow` escapes that suppressed at least one finding.
    pub allows_used: usize,
}

// ---------------------------------------------------------------------------
// Source scanning (same string/comment discipline as asrs-lint)
// ---------------------------------------------------------------------------

/// One source line split into code (string/char literals blanked) and
/// its trailing `//` comment, with `/* */` state carried by the caller.
fn split_line(line: &str, in_block_comment: &mut bool) -> (String, String) {
    let mut code = String::with_capacity(line.len());
    let mut comment = String::new();
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    while let Some(c) = chars.next() {
        if *in_block_comment {
            if c == '*' && chars.peek() == Some(&'/') {
                chars.next();
                *in_block_comment = false;
            }
            continue;
        }
        if in_str {
            match c {
                '\\' => {
                    chars.next();
                }
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                code.push('\u{0}');
            }
            '\'' => {
                let mut lookahead = chars.clone();
                let is_char_literal = match lookahead.next() {
                    Some('\\') => {
                        let _ = lookahead.next();
                        lookahead.next() == Some('\'')
                    }
                    Some(_) => lookahead.next() == Some('\''),
                    None => false,
                };
                if is_char_literal {
                    chars = lookahead;
                    code.push('\u{0}');
                } else {
                    code.push(c);
                }
            }
            '/' if chars.peek() == Some(&'/') => {
                comment = chars.collect::<String>();
                break;
            }
            '/' if chars.peek() == Some(&'*') => {
                chars.next();
                *in_block_comment = true;
            }
            _ => code.push(c),
        }
    }
    (code, comment)
}

fn net_braces(code: &str) -> i64 {
    let mut net = 0;
    for c in code.chars() {
        match c {
            '{' => net += 1,
            '}' => net -= 1,
            _ => {}
        }
    }
    net
}

/// A logical statement: physical lines joined until a `;`, `{`, `}` or
/// `]` boundary, with scope bookkeeping.
#[derive(Debug)]
struct Logical {
    /// 1-based first physical line.
    start: usize,
    /// Joined code text (strings blanked), newlines become spaces.
    text: String,
    depth_before: i64,
    depth_after: i64,
    in_test: bool,
    /// An `interlock:allow(...)` comment on these lines or on the
    /// directly preceding comment-only lines; the extracted reason.
    allow: Option<String>,
}

/// Splits a file into logical statements.
fn logical_lines(source: &str) -> Vec<Logical> {
    let mut out = Vec::new();
    let mut in_block_comment = false;
    let mut depth = 0i64;
    let mut test_scope: Option<i64> = None;
    let mut cfg_test_pending = false;
    let mut pending_allow: Option<String> = None;

    let mut buf = String::new();
    let mut buf_start = 0usize;
    let mut buf_depth = 0i64;
    let mut buf_allow: Option<String> = None;

    for (number, raw) in source.lines().enumerate() {
        let (code, comment) = split_line(raw, &mut in_block_comment);
        let allow_here = extract_allow(&comment);
        let trimmed = code.trim();

        if trimmed.is_empty() {
            // Comment-only (or blank) line: a standalone allow carries
            // over to the next logical statement.
            if allow_here.is_some() {
                pending_allow = allow_here;
            } else if !comment.is_empty() || raw.trim().is_empty() {
                // keep any earlier pending allow across doc runs
            }
            continue;
        }

        if test_scope.is_none() && trimmed.contains("#[cfg(test)]") {
            cfg_test_pending = true;
        }
        if cfg_test_pending && code.contains('{') && test_scope.is_none() {
            test_scope = Some(depth);
            cfg_test_pending = false;
        }
        let in_test = test_scope.is_some() || cfg_test_pending;

        if buf.is_empty() {
            buf_start = number + 1;
            buf_depth = depth;
            buf_allow = pending_allow.take();
        }
        if buf_allow.is_none() {
            buf_allow = allow_here;
        } else if allow_here.is_some() {
            // Two allows on one statement: keep the first.
        }
        if !buf.is_empty() {
            buf.push(' ');
        }
        buf.push_str(trimmed);
        depth += net_braces(&code);
        if let Some(at) = test_scope {
            if depth <= at {
                test_scope = None;
            }
        }

        let last = trimmed.chars().last().unwrap_or(' ');
        let attr_end = last == ']' && buf.starts_with('#');
        if matches!(last, ';' | '{' | '}') || attr_end {
            out.push(Logical {
                start: buf_start,
                text: std::mem::take(&mut buf),
                depth_before: buf_depth,
                depth_after: depth,
                in_test,
                allow: buf_allow.take(),
            });
        }
    }
    if !buf.is_empty() {
        out.push(Logical {
            start: buf_start,
            text: buf,
            depth_before: buf_depth,
            depth_after: depth,
            in_test: test_scope.is_some(),
            allow: buf_allow,
        });
    }
    out
}

fn extract_allow(comment: &str) -> Option<String> {
    let at = comment.find("interlock:allow(")?;
    let rest = &comment[at + "interlock:allow(".len()..];
    let end = rest.rfind(')').unwrap_or(rest.len());
    Some(rest[..end].to_string())
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The receiver symbol of a lock call: scanning backwards from the
/// token, skip one balanced `(...)` / `[...]` group, then read the
/// identifier (`self.slots[i].lock()` → `slots`,
/// `self.shard_of(&key).lock()` → `shard_of`).
fn receiver_symbol(text: &str, token_at: usize) -> Option<String> {
    let bytes = text.as_bytes();
    let mut i = token_at;
    loop {
        while i > 0 && (bytes[i - 1] as char).is_whitespace() {
            i -= 1;
        }
        if i == 0 {
            return None;
        }
        match bytes[i - 1] as char {
            ')' | ']' => {
                let close = bytes[i - 1] as char;
                let open = if close == ')' { '(' } else { '[' };
                let mut depth = 0i64;
                while i > 0 {
                    let c = bytes[i - 1] as char;
                    if c == close {
                        depth += 1;
                    } else if c == open {
                        depth -= 1;
                        if depth == 0 {
                            i -= 1;
                            break;
                        }
                    }
                    i -= 1;
                }
            }
            c if is_ident_char(c) => {
                let end = i;
                while i > 0 && is_ident_char(bytes[i - 1] as char) {
                    i -= 1;
                }
                let symbol = &text[i..end];
                if symbol.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                    return None;
                }
                return Some(symbol.to_string());
            }
            _ => return None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LockKind {
    Mutex,
    RwLock,
}

#[derive(Debug, Clone)]
struct Acquisition {
    /// Byte offset of the token within the logical text.
    offset: usize,
    kind: LockKind,
    /// `false` for `.read()`.
    write: bool,
    symbol: Option<String>,
}

/// Lock-acquisition tokens within one logical statement.
fn find_acquisitions(text: &str) -> Vec<Acquisition> {
    let mut out = Vec::new();
    for (token, kind, write) in [
        (".lock()", LockKind::Mutex, true),
        (".read()", LockKind::RwLock, false),
        (".write()", LockKind::RwLock, true),
    ] {
        let mut from = 0;
        while let Some(at) = text[from..].find(token) {
            let offset = from + at;
            out.push(Acquisition {
                offset,
                kind,
                write,
                symbol: receiver_symbol(text, offset),
            });
            from = offset + token.len();
        }
    }
    out.sort_by_key(|a| a.offset);
    out
}

/// Call names within one logical statement: identifiers directly
/// followed by `(`, excluding macros, definitions and control keywords.
fn call_names(text: &str) -> Vec<String> {
    // `drop` is std::mem::drop or a Drop impl, never a direct callee.
    const KEYWORDS: &[&str] = &[
        "if", "while", "for", "match", "return", "loop", "fn", "move", "in", "as", "else", "drop",
    ];
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if is_ident_char(c) {
            let start = i;
            while i < bytes.len() && is_ident_char(bytes[i] as char) {
                i += 1;
            }
            let name = &text[start..i];
            let next = bytes.get(i).map(|&b| b as char);
            let prev = start.checked_sub(1).map(|p| bytes[p] as char);
            if next == Some('(')
                && prev != Some('!')
                && !KEYWORDS.contains(&name)
                && !name.chars().next().is_some_and(|c| c.is_ascii_digit())
            {
                // Skip `fn name(` definitions and atomic operations
                // (`.load(Ordering::..)` etc. would otherwise resolve
                // against same-named engine methods).
                let before = text[..start].trim_end();
                if !before.ends_with("fn") && !paren_args(text, i).contains("Ordering") {
                    out.push(name.to_string());
                }
            }
        } else {
            i += 1;
        }
    }
    out
}

/// The balanced `(...)` argument slice starting at `open` (which must
/// point at the `(`); the rest of the text if unbalanced.
fn paren_args(text: &str, open: usize) -> &str {
    let bytes = text.as_bytes();
    let mut depth = 0i64;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b as char {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return &text[open..=i];
                }
            }
            _ => {}
        }
    }
    &text[open..]
}

/// The name of a function defined by this logical statement, if it
/// opens a body (`fn name(...) ... {`).
fn fn_definition(text: &str) -> Option<String> {
    if !text.ends_with('{') {
        return None;
    }
    let at = find_word(text, "fn")?;
    let rest = text[at + 2..].trim_start();
    let name: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// Position of `word` in `text` with identifier boundaries on both
/// sides.
fn find_word(text: &str, word: &str) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut from = 0;
    while let Some(at) = text[from..].find(word) {
        let start = from + at;
        let end = start + word.len();
        let before_ok = start == 0 || !is_ident_char(bytes[start - 1] as char);
        let after_ok = end >= bytes.len() || !is_ident_char(bytes[end] as char);
        if before_ok && after_ok {
            return Some(start);
        }
        from = start + 1;
    }
    None
}

fn blocking_tokens_in(text: &str) -> Vec<&'static str> {
    BLOCKING_TOKENS
        .iter()
        .copied()
        .filter(|token| {
            let mut from = 0;
            while let Some(at) = text[from..].find(token) {
                let start = from + at;
                // `publish(` must not match the `fn publish(` definition
                // or a path like `republish(`.
                let head = token.trim_start_matches('.');
                let tok_start = start + (token.len() - head.len());
                let bytes = text.as_bytes();
                let before_ok = tok_start == 0 || !is_ident_char(bytes[tok_start - 1] as char);
                let defines = text[..tok_start].trim_end().ends_with("fn");
                if before_ok && !defines {
                    return true;
                }
                from = start + token.len();
            }
            false
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The analysis
// ---------------------------------------------------------------------------

/// Every `.rs` file under `dir`, recursively, sorted.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
    Ok(())
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// A parsed source file.
struct FileScan {
    path: PathBuf,
    rel: String,
    logicals: Vec<Logical>,
}

#[derive(Debug, Default, Clone)]
struct FnEffects {
    /// Lock identities acquired directly in the body.
    acquires: BTreeSet<String>,
    /// A direct blocking token in the body, if any.
    blocking: Option<&'static str>,
    /// Callee names appearing in the body (with the caller's file).
    calls: Vec<String>,
}

#[derive(Debug, Clone)]
enum GuardShape {
    /// `let name = x.lock().expect(...);` — scoped to the enclosing
    /// block (or `drop(name)`).
    Named { name: String },
    /// `if let Ok(g) = x.lock() {` / `match x.lock() {` — scoped to the
    /// block the statement opens.
    Block,
    /// Guard lives only within its own statement.
    Statement,
}

#[derive(Debug, Clone)]
struct Guard {
    lock: String,
    shape: GuardShape,
    /// Index range of logical statements the guard covers (inclusive).
    first: usize,
    last: usize,
    /// Index of the last logical statement using the binding (Named
    /// only).
    last_use: usize,
    /// Reason of an `interlock:allow` attached to the acquisition.
    allow: Option<String>,
    /// Underscore-named guards declare an intentional hold.
    intentional: bool,
    line: usize,
}

/// After the lock token, is the rest of the statement just poison
/// handling (so the binding is the guard itself)?
fn binds_guard(text: &str, token_end: usize) -> bool {
    let mut rest = text[token_end..].trim_start();
    loop {
        if let Some(r) = rest.strip_prefix(';') {
            return r.trim().is_empty();
        }
        let Some(stripped) = rest.strip_prefix('.') else {
            return false;
        };
        let name: String = stripped.chars().take_while(|&c| is_ident_char(c)).collect();
        if !matches!(name.as_str(), "unwrap" | "expect" | "unwrap_or_else") {
            return false;
        }
        let after = &stripped[name.len()..];
        let Some(args_start) = after.strip_prefix('(') else {
            return false;
        };
        // Skip the balanced argument list.
        let mut depth = 1i64;
        let mut consumed = 0;
        for c in args_start.chars() {
            consumed += c.len_utf8();
            match c {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
        }
        if depth != 0 {
            return false;
        }
        rest = args_start[consumed..].trim_start();
    }
}

/// The `let` binding name of a statement, when the statement is a plain
/// `let [mut] name = ...` (not `let Ok(...)`).
fn let_binding(text: &str) -> Option<String> {
    let at = find_word(text, "let")?;
    if at != 0 {
        return None;
    }
    let mut rest = text[at + 3..].trim_start();
    if let Some(r) = rest.strip_prefix("mut ") {
        rest = r.trim_start();
    }
    let name: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
    let after = rest[name.len()..].trim_start();
    if name.is_empty() || !after.starts_with('=') {
        return None;
    }
    Some(name)
}

/// Whether the `let <name> = match <recv>.lock() { ... }` opened at
/// `idx` hands the mutex guard through to its binding: some arm is a
/// bare `pat => pat` pass-through or recovers a poisoned guard with
/// `into_inner()`.  Arms that map the guard to a derived value mean the
/// binding holds data, not the lock.
fn match_yields_guard(logicals: &[Logical], idx: usize, open_depth: i64) -> bool {
    for later in logicals.iter().skip(idx + 1) {
        if later.depth_before <= open_depth {
            break;
        }
        if later.text.contains("into_inner()") {
            return true;
        }
        // A bare pass-through arm — `Ok(name) => name,` — anywhere in
        // the (joined) arm text: the identifier after `=>` is exactly
        // the one the pattern before it bound.
        let mut rest = later.text.as_str();
        while let Some(at) = rest.find("=>") {
            let pattern = &rest[..at];
            let pattern_tail = pattern.rsplit(',').next().unwrap_or(pattern);
            let after = rest[at + 2..].trim_start();
            let name: String = after.chars().take_while(|&c| is_ident_char(c)).collect();
            let terminated = matches!(
                after[name.len()..].trim_start().chars().next(),
                None | Some(',') | Some('}')
            );
            if !name.is_empty()
                && !matches!(name.as_str(), "return" | "break" | "continue")
                && terminated
                && find_word(pattern_tail, &name).is_some()
            {
                return true;
            }
            rest = &rest[at + 2..];
        }
        if later.depth_after <= open_depth {
            break;
        }
    }
    false
}

struct Analysis<'a> {
    _phantom: std::marker::PhantomData<&'a ()>,
    files: Vec<FileScan>,
    /// `name@rel-path` → effects, for call resolution.
    fns: BTreeMap<String, FnEffects>,
    /// name → definition keys (non-test, body-bearing).
    by_name: BTreeMap<String, Vec<String>>,
}

/// Transitively resolved effects of a callee.
#[derive(Debug, Default, Clone)]
struct Resolved {
    acquires: BTreeSet<String>,
    /// A representative blocking description, if the callee (or
    /// anything it calls) blocks.
    blocking: Option<String>,
}

impl<'a> Analysis<'a> {
    fn lock_identity(&self, file_rel: &str, acq: &Acquisition) -> String {
        if let Some(symbol) = &acq.symbol {
            for (suffix, sym, id) in LOCK_ALIASES {
                if file_rel.ends_with(suffix) && sym == symbol {
                    return (*id).to_string();
                }
            }
            let parts: Vec<&str> = file_rel.split('/').collect();
            let krate = parts
                .iter()
                .position(|p| *p == "crates")
                .and_then(|i| parts.get(i + 1))
                .copied()
                .unwrap_or("unknown");
            let stem = parts
                .last()
                .and_then(|f| f.strip_suffix(".rs"))
                .unwrap_or("unknown");
            format!("{krate}.{stem}.{symbol}")
        } else {
            format!("{file_rel}.anonymous")
        }
    }

    fn resolve_call(&self, caller_rel: &str, name: &str) -> Option<&str> {
        for (suffix, callee, target) in CALL_OVERRIDES {
            if caller_rel.ends_with(suffix) && callee == &name {
                return target.as_deref();
            }
        }
        match self.by_name.get(name).map(Vec::as_slice) {
            Some([single]) => Some(single),
            _ => None,
        }
    }

    /// Transitive effects of `key`, cycle-safe.
    fn effects_of(
        &self,
        key: &str,
        memo: &mut BTreeMap<String, Resolved>,
        stack: &mut Vec<String>,
    ) -> Resolved {
        if let Some(done) = memo.get(key) {
            return done.clone();
        }
        if stack.iter().any(|k| k == key) {
            return Resolved::default();
        }
        let Some(direct) = self.fns.get(key) else {
            return Resolved::default();
        };
        stack.push(key.to_string());
        let mut resolved = Resolved {
            acquires: direct.acquires.clone(),
            blocking: direct
                .blocking
                .map(|t| format!("`{}` in {}", t.trim_matches(|c| c == '.' || c == '('), key)),
        };
        let caller_rel = key.split('@').nth(1).unwrap_or("");
        for call in &direct.calls {
            if let Some(target) = self.resolve_call(caller_rel, call) {
                let target = target.to_string();
                let sub = self.effects_of(&target, memo, stack);
                resolved.acquires.extend(sub.acquires.iter().cloned());
                if resolved.blocking.is_none() {
                    resolved.blocking = sub.blocking.map(|b| format!("{b} via {call}"));
                }
            }
        }
        stack.pop();
        memo.insert(key.to_string(), resolved.clone());
        resolved
    }
}

/// Lock bookkeeping accumulated across files.
#[derive(Default)]
struct Graph {
    /// identity → (kind, site count, files)
    locks: BTreeMap<String, (LockKind, usize, BTreeSet<String>)>,
    /// (from, to) → files contributing the edge
    edges: BTreeMap<(String, String), BTreeSet<String>>,
    /// (lock, file, reason) of used blocking allows
    allows: BTreeSet<(String, String, String)>,
}

/// Runs the full analysis over `root`.
pub fn analyze(root: &Path) -> Result<Report, String> {
    let mut files = Vec::new();
    for krate in SCANNED_CRATES {
        let src = root.join(krate).join("src");
        if !src.is_dir() {
            continue;
        }
        let mut paths = Vec::new();
        rust_files(&src, &mut paths).map_err(|e| format!("walking {}: {e}", src.display()))?;
        for path in paths {
            let source = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            // The model scheduler is instrumentation, not protocol: its
            // locks exist to *run* the checker, so it is out of scope
            // for the static pass (the dynamic checker covers it).
            if source
                .lines()
                .take(60)
                .any(|l| l.trim() == "#![cfg(feature = \"model\")]")
            {
                continue;
            }
            let rel_path = rel(root, &path);
            files.push(FileScan {
                path,
                rel: rel_path,
                logicals: logical_lines(&source),
            });
        }
    }

    // Pass 1: the function-effect table.
    let mut analysis = Analysis {
        _phantom: std::marker::PhantomData,
        files,
        fns: BTreeMap::new(),
        by_name: BTreeMap::new(),
    };
    for file in &analysis.files {
        let mut stack: Vec<(String, i64)> = Vec::new();
        for logical in &file.logicals {
            while let Some((_, depth)) = stack.last() {
                if logical.depth_after <= *depth && logical.depth_before <= *depth {
                    stack.pop();
                } else {
                    break;
                }
            }
            if logical.in_test {
                continue;
            }
            if let Some(name) = fn_definition(&logical.text) {
                let key = format!("{name}@{}", file.rel);
                stack.push((key.clone(), logical.depth_before));
                analysis.fns.entry(key.clone()).or_default();
                analysis.by_name.entry(name).or_default().push(key);
                continue;
            }
            let Some((key, _)) = stack.last() else {
                continue;
            };
            let key = key.clone();
            let acquired: Vec<String> = find_acquisitions(&logical.text)
                .iter()
                .map(|acq| analysis.lock_identity(&file.rel, acq))
                .collect();
            let effects = analysis.fns.entry(key).or_default();
            effects.acquires.extend(acquired);
            if effects.blocking.is_none() {
                effects.blocking = blocking_tokens_in(&logical.text).first().copied();
            }
            effects.calls.extend(call_names(&logical.text));
        }
    }

    // Pass 2: guard extents, edges and findings per file.
    let mut graph = Graph::default();
    let mut findings = Vec::new();
    let mut site_count = 0usize;
    let mut used_allows: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut all_allows: Vec<(usize, usize)> = Vec::new();
    let mut memo = BTreeMap::new();

    for (file_idx, file) in analysis.files.iter().enumerate() {
        for (idx, logical) in file.logicals.iter().enumerate() {
            if logical.allow.is_some() && !logical.in_test {
                all_allows.push((file_idx, idx));
            }
        }
        let guards = collect_guards(&analysis, file_idx);
        for guard in &guards {
            site_count += 1;
            let kind = if guard.lock.starts_with("engine.epoch") {
                LockKind::RwLock
            } else {
                LockKind::Mutex
            };
            let entry = graph
                .locks
                .entry(guard.lock.clone())
                .or_insert((kind, 0, BTreeSet::new()));
            entry.1 += 1;
            entry.2.insert(file.rel.clone());
        }
        // Record the real kinds from the acquisition tokens.
        for logical in &file.logicals {
            if logical.in_test {
                continue;
            }
            for acq in find_acquisitions(&logical.text) {
                let id = analysis.lock_identity(&file.rel, &acq);
                if let Some(entry) = graph.locks.get_mut(&id) {
                    if acq.kind == LockKind::RwLock {
                        entry.0 = LockKind::RwLock;
                    }
                }
            }
        }

        analyze_guards(
            &analysis,
            file_idx,
            &guards,
            &mut graph,
            &mut findings,
            &mut used_allows,
            &mut memo,
        );
    }

    // Check (a): cycles over the whole graph.
    findings.extend(find_cycles(&graph, root));

    // Unused allows decay into findings so the escape list cannot rot.
    for (file_idx, idx) in &all_allows {
        if !used_allows.contains(&(*file_idx, *idx)) {
            let file = &analysis.files[*file_idx];
            findings.push(Finding {
                file: file.path.clone(),
                line: file.logicals[*idx].start,
                category: Category::AllowBudget,
                message: "interlock:allow escape suppresses nothing; remove it".to_string(),
            });
        }
    }
    let allows_used = used_allows.len();
    if allows_used > ALLOW_BUDGET {
        findings.push(Finding {
            file: root.join(MANIFEST_PATH),
            line: 0,
            category: Category::AllowBudget,
            message: format!(
                "interlock:allow budget exceeded: {allows_used} escapes, budget {ALLOW_BUDGET}"
            ),
        });
    }

    let manifest = render_manifest(&graph);

    // Manifest drift: only checked inside the real workspace (fixture
    // trees have no crates/interlock).
    let manifest_file = root.join(MANIFEST_PATH);
    if root.join("crates/interlock").is_dir() {
        match std::fs::read_to_string(&manifest_file) {
            Ok(committed) if committed == manifest => {}
            Ok(_) => findings.push(Finding {
                file: manifest_file,
                line: 0,
                category: Category::ManifestDrift,
                message: "lock graph changed; review the diff and regenerate with `cargo run -p asrs-lint -- --update-lock-order`".to_string(),
            }),
            Err(_) => findings.push(Finding {
                file: manifest_file,
                line: 0,
                category: Category::ManifestDrift,
                message: "LOCK_ORDER.md missing; generate it with `cargo run -p asrs-lint -- --update-lock-order`".to_string(),
            }),
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(Report {
        findings,
        manifest,
        lock_count: graph.locks.len(),
        site_count,
        edge_count: graph.edges.len(),
        allows_used,
    })
}

/// Guard extents of one file.
fn collect_guards(analysis: &Analysis<'_>, file_idx: usize) -> Vec<Guard> {
    let file = &analysis.files[file_idx];
    let mut guards = Vec::new();
    for (idx, logical) in file.logicals.iter().enumerate() {
        if logical.in_test {
            continue;
        }
        for acq in find_acquisitions(&logical.text) {
            let lock = analysis.lock_identity(&file.rel, &acq);
            let token_len = if acq.write && acq.kind == LockKind::RwLock {
                ".write()".len()
            } else if acq.kind == LockKind::RwLock {
                ".read()".len()
            } else {
                ".lock()".len()
            };
            let opens_block = logical.text.ends_with('{');
            let binding = let_binding(&logical.text);
            let shape = if let (Some(name), false) = (&binding, opens_block) {
                if binds_guard(&logical.text, acq.offset + token_len) {
                    GuardShape::Named { name: name.clone() }
                } else {
                    GuardShape::Statement
                }
            } else if opens_block {
                // `let guard = match recv.lock() { ... }`: when an arm
                // hands the guard through (a bare `pat => pat` arm or a
                // poison-recovering `into_inner()`), the binding IS the
                // guard and outlives the match — a Block extent would end
                // it at the match close and hide every later acquisition
                // (the shape of the cache's in-flight slot protocol).
                // Arms that reduce the guard to a value (e.g.
                // `Ok(guard) => guard.recv()`) stay Block.
                match &binding {
                    Some(name)
                        if find_word(&logical.text, "match").is_some()
                            && match_yields_guard(&file.logicals, idx, logical.depth_before) =>
                    {
                        GuardShape::Named { name: name.clone() }
                    }
                    _ => GuardShape::Block,
                }
            } else {
                GuardShape::Statement
            };

            // Extent.
            let (first, last) = match shape {
                GuardShape::Statement => (idx, idx),
                GuardShape::Block | GuardShape::Named { .. } => {
                    let close_depth = match shape {
                        // A block guard dies when the block it opened
                        // closes; a named guard when its enclosing
                        // block closes.
                        GuardShape::Block => logical.depth_before,
                        _ => logical.depth_before - 1,
                    };
                    let mut end = idx;
                    for (j, later) in file.logicals.iter().enumerate().skip(idx + 1) {
                        end = j;
                        if let GuardShape::Named { name } = &shape {
                            // A `drop(guard)` ends the extent only at the
                            // declaration's own nesting depth: inside a
                            // nested branch it precedes an early exit and
                            // the guard stays held on the fallthrough
                            // path.
                            if later.text.contains(&format!("drop({name})"))
                                && later.depth_before <= logical.depth_before
                            {
                                break;
                            }
                        }
                        if later.depth_after <= close_depth {
                            break;
                        }
                    }
                    (idx, end)
                }
            };
            let (last_use, intentional, name) = match &shape {
                GuardShape::Named { name } => {
                    let mut last_use = idx;
                    for j in (idx + 1)..=last {
                        if find_word(&file.logicals[j].text, name).is_some() {
                            last_use = j;
                        }
                    }
                    (last_use, name.starts_with('_'), Some(name.clone()))
                }
                _ => (last, true, None),
            };
            let _ = name;
            guards.push(Guard {
                lock,
                shape,
                first,
                last,
                last_use,
                allow: logical.allow.clone(),
                intentional,
                line: logical.start,
            });
        }
    }
    guards
}

/// Edges + checks (b) and (c) for one file's guards.
#[allow(clippy::too_many_arguments)]
fn analyze_guards(
    analysis: &Analysis<'_>,
    file_idx: usize,
    guards: &[Guard],
    graph: &mut Graph,
    findings: &mut Vec<Finding>,
    used_allows: &mut BTreeSet<(usize, usize)>,
    memo: &mut BTreeMap<String, Resolved>,
) {
    let file = &analysis.files[file_idx];
    for guard in guards {
        let mut flagged_lines: BTreeSet<usize> = BTreeSet::new();
        let mut stale: Vec<String> = Vec::new();
        for j in guard.first..=guard.last {
            let logical = &file.logicals[j];
            let own_statement = j == guard.first;

            // Nested direct acquisitions -> edges.
            for acq in find_acquisitions(&logical.text) {
                if own_statement {
                    continue;
                }
                // A self-edge (re-acquiring the held lock) is recorded
                // too: find_cycles reports it as a self-deadlock.
                let to = analysis.lock_identity(&file.rel, &acq);
                graph
                    .edges
                    .entry((guard.lock.clone(), to))
                    .or_default()
                    .insert(file.rel.clone());
                if j > guard.last_use && !guard.intentional {
                    stale.push(format!("acquires another lock at line {}", logical.start));
                }
            }

            // Callee effects -> edges + transitive blocking.
            let mut transitive_blocking: Option<String> = None;
            for call in call_names(&logical.text) {
                if let Some(target) = analysis.resolve_call(&file.rel, &call) {
                    let target = target.to_string();
                    let mut stack = Vec::new();
                    let resolved = analysis.effects_of(&target, memo, &mut stack);
                    for to in &resolved.acquires {
                        if to != &guard.lock {
                            graph
                                .edges
                                .entry((guard.lock.clone(), to.clone()))
                                .or_default()
                                .insert(file.rel.clone());
                        }
                    }
                    if transitive_blocking.is_none() {
                        transitive_blocking = resolved.blocking.clone();
                    }
                }
            }

            // Check (b)/(c): blocking under the guard.
            let direct = blocking_tokens_in(&logical.text);
            let blocking_desc = direct
                .first()
                .map(|t| format!("`{}`", t.trim_matches(|c| c == '.' || c == '(')))
                .or(transitive_blocking);
            let Some(desc) = blocking_desc else {
                continue;
            };
            if own_statement && direct.is_empty() {
                continue;
            }
            if j > guard.last_use && !guard.intentional {
                stale.push(format!("blocks on {desc} at line {}", logical.start));
                continue;
            }
            if let Some(reason) = &guard.allow {
                used_allows.insert((file_idx, guard.first));
                graph
                    .allows
                    .insert((guard.lock.clone(), file.rel.clone(), reason.clone()));
                continue;
            }
            if let Some(line_reason) = &logical.allow {
                used_allows.insert((file_idx, j));
                graph
                    .allows
                    .insert((guard.lock.clone(), file.rel.clone(), line_reason.clone()));
                continue;
            }
            if flagged_lines.insert(logical.start) {
                findings.push(Finding {
                    file: file.path.clone(),
                    line: logical.start,
                    category: Category::BlockingHold,
                    message: format!(
                        "guard on `{}` (line {}) held across blocking {desc}; shrink the guard or justify with `// interlock:allow(reason)`",
                        guard.lock, guard.line
                    ),
                });
            }
        }
        if !stale.is_empty() && guard.allow.is_none() {
            let shape_name = match &guard.shape {
                GuardShape::Named { name } => name.clone(),
                _ => guard.lock.clone(),
            };
            findings.push(Finding {
                file: file.path.clone(),
                line: guard.line,
                category: Category::StaleScope,
                message: format!(
                    "guard `{shape_name}` on `{}` outlives its last use (line {}) and then {}; drop it at last use",
                    guard.lock,
                    file.logicals[guard.last_use].start,
                    stale.join("; ")
                ),
            });
        } else if !stale.is_empty() {
            used_allows.insert((file_idx, guard.first));
        }
    }
}

/// Check (a): cycles in the acquisition-order graph.
fn find_cycles(graph: &Graph, root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in graph.edges.keys() {
        adj.entry(from).or_default().push(to);
    }
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for (from, to) in graph.edges.keys() {
        if from == to {
            let cycle = vec![from.clone()];
            if reported.insert(cycle) {
                findings.push(Finding {
                    file: root.join(MANIFEST_PATH),
                    line: 0,
                    category: Category::OrderCycle,
                    message: format!(
                        "lock `{from}` is re-acquired while already held ({}): self-deadlock risk",
                        graph.edges[&(from.clone(), to.clone())]
                            .iter()
                            .cloned()
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                });
            }
            continue;
        }
        // BFS: path to -> ... -> from closes a cycle through this edge.
        if let Some(path) = bfs_path(&adj, to, from) {
            let mut cycle: Vec<String> = path.iter().map(|s| s.to_string()).collect();
            // Canonical rotation so each cycle reports once.
            let min_at = cycle
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.cmp(b))
                .map(|(i, _)| i)
                .unwrap_or(0);
            cycle.rotate_left(min_at);
            if reported.insert(cycle.clone()) {
                let mut display = cycle.clone();
                display.push(display[0].clone());
                findings.push(Finding {
                    file: root.join(MANIFEST_PATH),
                    line: 0,
                    category: Category::OrderCycle,
                    message: format!(
                        "acquisition-order cycle: {} (potential deadlock; break the cycle or re-order the acquisitions)",
                        display.join(" -> ")
                    ),
                });
            }
        }
    }
    findings
}

fn bfs_path<'g>(
    adj: &BTreeMap<&'g str, Vec<&'g str>>,
    from: &'g str,
    to: &'g str,
) -> Option<Vec<&'g str>> {
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(vec![from]);
    let mut seen = BTreeSet::new();
    seen.insert(from);
    while let Some(path) = queue.pop_front() {
        let last = *path.last()?;
        if last == to {
            return Some(path);
        }
        for next in adj.get(last).into_iter().flatten() {
            if seen.insert(next) {
                let mut p = path.clone();
                p.push(next);
                queue.push_back(p);
            }
        }
    }
    None
}

/// Renders the committed manifest.
fn render_manifest(graph: &Graph) -> String {
    let mut out = String::new();
    out.push_str("# Lock-order manifest\n\n");
    out.push_str(
        "Generated by `cargo run -p asrs-lint -- --update-lock-order`; checked by\n\
         `cargo run -p asrs-lint` (and CI) against the scanned sources.  Any diff\n\
         here is a lock-graph change and deserves the same review as an API\n\
         change.  The dynamic half of this contract is enforced by\n\
         `cargo test -p asrs-core --features model --test model`, which reads its\n\
         declared order from the edge table below.\n\n",
    );
    out.push_str("## Locks\n\n| lock | kind | sites | files |\n|---|---|---|---|\n");
    for (id, (kind, sites, files)) in &graph.locks {
        let kind = match kind {
            LockKind::Mutex => "Mutex",
            LockKind::RwLock => "RwLock",
        };
        let files = files.iter().cloned().collect::<Vec<_>>().join(", ");
        out.push_str(&format!("| {id} | {kind} | {sites} | {files} |\n"));
    }
    out.push_str(
        "\n## Acquisition-order edges\n\n\
         While holding the lock on the left, the engine may acquire the lock on\n\
         the right.  The graph must stay a DAG.\n\n\
         | held | then acquired | via |\n|---|---|---|\n",
    );
    for ((from, to), files) in &graph.edges {
        let files = files.iter().cloned().collect::<Vec<_>>().join(", ");
        out.push_str(&format!("| {from} | {to} | {files} |\n"));
    }
    out.push_str(
        "\n## Justified blocking holds\n\n\
         Guards deliberately held across blocking operations, each carrying an\n\
         `// interlock:allow(reason)` at the acquisition site.\n\n\
         | lock | file | reason |\n|---|---|---|\n",
    );
    for (lock, file, reason) in &graph.allows {
        out.push_str(&format!("| {lock} | {file} | {reason} |\n"));
    }
    out
}

/// Regenerates and writes [`MANIFEST_PATH`]; returns the manifest text.
pub fn update_manifest(root: &Path) -> Result<String, String> {
    let report = analyze(root)?;
    let path = root.join(MANIFEST_PATH);
    std::fs::write(&path, &report.manifest)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(report.manifest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn receiver_symbols_resolve_through_calls_and_indexes() {
        let text = "let a = self.slots[i].lock();";
        let at = text.find(".lock()").unwrap();
        assert_eq!(receiver_symbol(text, at).as_deref(), Some("slots"));
        let text = "self.shard_of(&key).lock()";
        let at = text.find(".lock()").unwrap();
        assert_eq!(receiver_symbol(text, at).as_deref(), Some("shard_of"));
        let text = "shared .mutator .lock()";
        let at = text.find(".lock()").unwrap();
        assert_eq!(receiver_symbol(text, at).as_deref(), Some("mutator"));
    }

    #[test]
    fn guard_binding_detection_distinguishes_guards_from_values() {
        // The binding IS the guard: only poison handling follows.
        let text = "let mut inner = self.inner.lock().expect(\u{0});";
        let at = text.find(".lock()").unwrap();
        assert!(binds_guard(text, at + ".lock()".len()));
        // The binding is a clone, not the guard.
        let text = "let mut search = self.search.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone();";
        let at = text.find(".lock()").unwrap();
        assert!(!binds_guard(text, at + ".lock()".len()));
    }

    #[test]
    fn logical_lines_join_method_chains() {
        let source = "fn f(&self) -> u64 {\n    self.inner\n        .lock()\n        .expect(\"poisoned\")\n        .entries\n}\n";
        let logicals = logical_lines(source);
        assert_eq!(logicals.len(), 2);
        assert!(logicals[1]
            .text
            .contains(".lock() .expect(\u{0}) .entries }"));
    }

    #[test]
    fn blocking_tokens_skip_definitions() {
        assert!(blocking_tokens_in("publish(shared, &mut state)").contains(&"publish("));
        assert!(blocking_tokens_in("fn publish( shared: &EngineShared,").is_empty());
        assert!(blocking_tokens_in("inner.file.sync_data()").contains(&"sync_data("));
    }

    #[test]
    fn allow_comments_extract_their_reason() {
        assert_eq!(
            extract_allow(" interlock:allow(WAL fsync is the critical section)").as_deref(),
            Some("WAL fsync is the critical section")
        );
        assert_eq!(extract_allow(" plain comment"), None);
    }
}
