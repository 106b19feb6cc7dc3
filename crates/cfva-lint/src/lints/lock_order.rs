//! **L001 — lock acquisition order in `cfva-serve`.**
//!
//! The serving layer's concurrency design keeps every lock a **leaf**:
//! a thread holds at most one of the serve locks at a time. The
//! scheduler mutex (`sched`), the worker-handle list (`handles`), the
//! spec table (`specs`) and the result-cache shards
//! (`shards` / `shard()`) must never nest in either direction — jobs
//! run and resolve their tickets *after* releasing the scheduler lock,
//! and cache population happens outside it. A nested acquisition is either a
//! latent deadlock (opposite orders on two threads) or an accidental
//! extension of a critical section; both are rejected here.
//!
//! The lint discovers the lock classes itself: every struct field or
//! provider function in `cfva-serve` whose type mentions `Mutex<…>`,
//! `ClassedMutex<…>` or `RwLock<…>` names a class. It then walks each
//! function, tracking live guards:
//!
//! * `let g = <recv>.lock()…;` (optionally through `.expect(…)` /
//!   `.unwrap()`) — the guard lives to the end of its block, or to an
//!   explicit `drop(g)`;
//! * a `.lock()` used inline in a larger expression — the temporary
//!   guard lives to the end of the statement.
//!
//! Acquiring any class while another guard is live is a violation,
//! unless the ordered pair appears in [`ALLOWED_NESTING`] — the
//! extension point if the design ever grows a genuine hierarchy.

use std::collections::HashMap;

use super::{CodeTokens, Lint};
use crate::diag::Diagnostic;
use crate::lexer::{self, TokenKind};
use crate::workspace::{Role, Workspace};

/// Ordered `(outer, inner)` pairs that are allowed to nest. Empty: the
/// current design is all-leaves. Adding a pair here documents a real
/// hierarchy decision and should come with a doc update in
/// `cfva-serve/src/locks.rs`.
const ALLOWED_NESTING: &[(&str, &str)] = &[];

/// The crates whose locks this lint governs: the serve substrate and
/// its wire front end, which reuses the same `ClassedMutex` classes
/// (`WireConns`, `WireIntern`, `WireSink`) and so answers to the same
/// leaf discipline.
const LOCKED_CRATES: &[&str] = &["cfva-serve", "cfva-wire"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LockKind {
    Mutex,
    RwLock,
}

pub struct LockOrder;

impl Lint for LockOrder {
    fn code(&self) -> &'static str {
        "L001"
    }

    fn description(&self) -> &'static str {
        "cfva-serve and cfva-wire locks are leaves: no two lock guards may be live at once"
    }

    fn run(&self, ws: &Workspace) -> Vec<Diagnostic> {
        let serve_files: Vec<_> = ws
            .files
            .iter()
            .filter(|f| LOCKED_CRATES.contains(&f.crate_name.as_str()) && f.role == Role::Lib)
            .collect();

        // Pass 1: discover the lock classes across the whole crate, so
        // uses in one module see classes declared in another.
        let mut classes: HashMap<String, LockKind> = HashMap::new();
        for file in &serve_files {
            discover_classes(&CodeTokens::new(file), &mut classes);
        }

        // Pass 2: check guard liveness per file.
        let mut diags = Vec::new();
        for file in &serve_files {
            check_file(&CodeTokens::new(file), &classes, &mut diags);
        }
        diags
    }
}

/// Records `name → kind` for every field `name: …Mutex<…>` (or
/// `RwLock`) and every provider `fn name(…) -> …Mutex<…>`.
fn discover_classes(code: &CodeTokens<'_>, classes: &mut HashMap<String, LockKind>) {
    for k in 0..code.len() {
        if code.tok(k).kind != TokenKind::Ident {
            continue;
        }
        let kind = match code.text(k) {
            "Mutex" | "ClassedMutex" => LockKind::Mutex,
            "RwLock" => LockKind::RwLock,
            _ => continue,
        };
        if k + 1 >= code.len() || code.tok(k + 1).kind != TokenKind::Punct('<') {
            continue;
        }
        if let Some(name) = owner_of_type_mention(code, k) {
            classes.entry(name).or_insert(kind);
        }
    }
}

/// Walks backward from a `Mutex<`-ish mention at `k` to the field or
/// provider-fn name that owns the type: through wrapper idents
/// (`Arc<Mutex<…>>`), `&`, lifetimes and `::` paths, until a `:` (field
/// declaration) or a `->` (provider return type).
fn owner_of_type_mention(code: &CodeTokens<'_>, k: usize) -> Option<String> {
    let mut j = k.checked_sub(1)?;
    loop {
        match code.tok(j).kind {
            TokenKind::Ident
            | TokenKind::Lifetime
            | TokenKind::Punct('<')
            | TokenKind::Punct('&') => {}
            TokenKind::Punct(':') => {
                // `::` path segment — step over the pair and continue.
                let second_of_pair = j > 0
                    && code.tok(j - 1).kind == TokenKind::Punct(':')
                    && code.tok(j - 1).end == code.tok(j).start;
                if second_of_pair {
                    j -= 1;
                } else if code.tok(j - 1).kind == TokenKind::Ident {
                    // Plain `:` — the ident before it is the field name.
                    let name = code.text(j - 1);
                    if lexer::is_keyword(name) {
                        return None;
                    }
                    return Some(name.to_string());
                } else {
                    return None;
                }
            }
            TokenKind::Punct('>') => {
                // `->` — provider function. `fn name ( … ) -> type`.
                if code.tok(j - 1).kind != TokenKind::Punct('-') {
                    return None;
                }
                let close = j.checked_sub(2)?;
                if code.tok(close).kind != TokenKind::Punct(')') {
                    return None;
                }
                let open = matching_backward(code, close)?;
                let name_k = open.checked_sub(1)?;
                if code.tok(name_k).kind != TokenKind::Ident {
                    return None;
                }
                if !code.is_ident(name_k.checked_sub(1)?, "fn") {
                    return None;
                }
                return Some(code.text(name_k).to_string());
            }
            _ => return None,
        }
        j = j.checked_sub(1)?;
    }
}

/// The index of the `(` matching the `)` at `close`, scanning backward.
fn matching_backward(code: &CodeTokens<'_>, close: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut j = close;
    loop {
        match code.tok(j).kind {
            TokenKind::Punct(')') => depth += 1,
            TokenKind::Punct('(') => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
        j = j.checked_sub(1)?;
    }
}

/// One live guard while scanning a file.
struct Guard {
    /// The lock class held.
    class: String,
    /// Binding name for `drop(name)` release; `None` for temporaries.
    var: Option<String>,
    /// Brace depth the guard was created at — it dies when the scan
    /// leaves that depth.
    depth: i32,
    /// Temporaries die at the next `;` at their depth.
    to_stmt_end: bool,
}

fn check_file(
    code: &CodeTokens<'_>,
    classes: &HashMap<String, LockKind>,
    diags: &mut Vec<Diagnostic>,
) {
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0i32;
    let mut stmt_start = 0usize; // index of the current statement's first token

    for k in 0..code.len() {
        match code.tok(k).kind {
            TokenKind::Punct('{') => {
                depth += 1;
                stmt_start = k + 1;
                continue;
            }
            TokenKind::Punct('}') => {
                depth -= 1;
                guards.retain(|g| g.depth <= depth);
                stmt_start = k + 1;
                continue;
            }
            TokenKind::Punct(';') => {
                guards.retain(|g| !(g.to_stmt_end && g.depth == depth));
                stmt_start = k + 1;
                continue;
            }
            _ => {}
        }

        // `drop(name)` releases a named guard early.
        if code.is_ident(k, "drop")
            && k + 3 < code.len()
            && code.tok(k + 1).kind == TokenKind::Punct('(')
            && code.tok(k + 2).kind == TokenKind::Ident
            && code.tok(k + 3).kind == TokenKind::Punct(')')
        {
            let dropped = code.text(k + 2).to_string();
            guards.retain(|g| g.var.as_deref() != Some(dropped.as_str()));
            continue;
        }

        // An acquisition: `<recv>.lock()` / `.read()` / `.write()`
        // where the receiver's final segment names a discovered class
        // of the matching kind.
        if code.tok(k).kind != TokenKind::Ident {
            continue;
        }
        let method = code.text(k);
        let wants = match method {
            "lock" => LockKind::Mutex,
            "read" | "write" => LockKind::RwLock,
            _ => continue,
        };
        if k + 2 >= code.len()
            || code.tok(k + 1).kind != TokenKind::Punct('(')
            || code.tok(k + 2).kind != TokenKind::Punct(')')
        {
            continue;
        }
        let Some(recv) = code.receiver_tail(k) else {
            continue;
        };
        if classes.get(recv) != Some(&wants) {
            continue;
        }
        let class = recv.to_string();

        for held in &guards {
            if ALLOWED_NESTING.contains(&(held.class.as_str(), class.as_str())) {
                continue;
            }
            diags.push(code.diag_at(
                k,
                "L001",
                format!(
                    "lock `{class}` acquired while `{}` is held — cfva-serve locks are \
                     leaves and must not nest",
                    held.class
                ),
            ));
        }

        // Classify the new guard's lifetime.
        let bound_var = let_binding_of(code, stmt_start, k);
        let is_let_guard = bound_var.is_some() && expr_ends_at_lock(code, k + 2);
        guards.push(Guard {
            class,
            var: if is_let_guard { bound_var } else { None },
            depth,
            to_stmt_end: !is_let_guard,
        });
    }
}

/// If the statement starting at `stmt_start` is `let [mut] name = …`
/// and the token at `k` lies in its initializer, the binding name.
fn let_binding_of(code: &CodeTokens<'_>, stmt_start: usize, k: usize) -> Option<String> {
    if stmt_start >= k || !code.is_ident(stmt_start, "let") {
        return None;
    }
    let mut n = stmt_start + 1;
    if code.is_ident(n, "mut") {
        n += 1;
    }
    if code.tok(n).kind != TokenKind::Ident {
        return None;
    }
    let name = code.text(n).to_string();
    if code.tok(n + 1).kind != TokenKind::Punct('=') {
        return None;
    }
    Some(name)
}

/// Whether the expression effectively ends at the `.lock()` call whose
/// closing `)` is at `close` — directly, or through `.expect("…")` /
/// `.unwrap()` — so the whole statement binds the guard.
fn expr_ends_at_lock(code: &CodeTokens<'_>, close: usize) -> bool {
    let mut j = close + 1;
    loop {
        if j >= code.len() {
            return false;
        }
        match code.tok(j).kind {
            TokenKind::Punct(';') => return true,
            TokenKind::Punct('.') => {
                let name_k = j + 1;
                if code.is_ident(name_k, "expect") || code.is_ident(name_k, "unwrap") {
                    let Some(open) = name_k.checked_add(1) else {
                        return false;
                    };
                    if code.tok(open).kind != TokenKind::Punct('(') {
                        return false;
                    }
                    let Some(call_close) = code.matching(open) else {
                        return false;
                    };
                    j = call_close + 1;
                } else {
                    return false;
                }
            }
            _ => return false,
        }
    }
}
