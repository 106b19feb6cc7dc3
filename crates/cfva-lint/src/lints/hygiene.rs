//! **L005 — crate hygiene: `forbid(unsafe_code)` and `#[must_use]`.**
//!
//! Two blanket rules with no judgement calls:
//!
//! * every crate root (`src/lib.rs`, `crates/*/src/lib.rs`) carries
//!   `#![forbid(unsafe_code)]` — the whole workspace is safe Rust, and
//!   `forbid` (unlike `deny`) cannot be overridden downstream;
//! * every `pub fn` returning one of the workspace's *handle types* —
//!   `Ticket` / `ServeTicket` (a pending result that is lost if
//!   dropped) or `AccessStats` (a measurement someone paid simulation
//!   time for) — is `#[must_use]`. A `must_use`
//!   on the type covers plain returns but not `Option<Ticket<_>>` and
//!   friends, which is exactly how `try_submit` results get dropped;
//!   the attribute on the function closes that hole.

use super::{CodeTokens, Lint};
use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::workspace::{Role, SourceFile, Workspace};

/// Return types whose producers must be `#[must_use]`.
const HANDLE_TYPES: &[&str] = &["Ticket", "ServeTicket", "WireTicket", "AccessStats"];

pub struct Hygiene;

impl Lint for Hygiene {
    fn code(&self) -> &'static str {
        "L005"
    }

    fn description(&self) -> &'static str {
        "crate roots forbid unsafe_code; pub fns returning handle types are #[must_use]"
    }

    fn run(&self, ws: &Workspace) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        for file in &ws.files {
            if is_crate_root(&file.rel) && !has_forbid_unsafe(file) {
                diags.push(Diagnostic::new(
                    file.rel.clone(),
                    1,
                    1,
                    "L005",
                    "crate root is missing `#![forbid(unsafe_code)]`",
                ));
            }
            if file.role == Role::Lib {
                check_must_use(file, &mut diags);
            }
        }
        diags
    }
}

fn is_crate_root(rel: &str) -> bool {
    if rel == "src/lib.rs" {
        return true;
    }
    let parts: Vec<&str> = rel.split('/').collect();
    parts.len() == 4 && parts[0] == "crates" && parts[2] == "src" && parts[3] == "lib.rs"
}

fn has_forbid_unsafe(file: &SourceFile) -> bool {
    let code = CodeTokens::new(file);
    (0..code.len()).any(|k| {
        k + 3 < code.len()
            && code.is_ident(k, "forbid")
            && code.tok(k + 1).kind == TokenKind::Punct('(')
            && code.is_ident(k + 2, "unsafe_code")
            && code.tok(k + 3).kind == TokenKind::Punct(')')
    })
}

fn check_must_use(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    let code = CodeTokens::new(file);
    for k in 0..code.len() {
        if !code.is_ident(k, "pub") || code.in_test(k) {
            continue;
        }
        // Plain `pub` only — `pub(crate)` fns are internal plumbing.
        let mut f = k + 1;
        if f >= code.len() || code.tok(f).kind == TokenKind::Punct('(') {
            continue;
        }
        if !code.is_ident(f, "fn") {
            continue;
        }
        f += 1;
        if f >= code.len() || code.tok(f).kind != TokenKind::Ident {
            continue;
        }
        let name_k = f;
        let Some(ret) = return_type_range(&code, name_k) else {
            continue;
        };
        let handle = (ret.0..ret.1)
            .find_map(|j| HANDLE_TYPES.iter().find(|ty| code.is_ident(j, ty)).copied());
        let Some(handle) = handle else {
            continue;
        };
        if !preceding_attrs_have(&code, k, "must_use") {
            diags.push(code.diag_at(
                name_k,
                "L005",
                format!(
                    "`pub fn {}` returns `{handle}` but is not `#[must_use]`",
                    code.text(name_k)
                ),
            ));
        }
    }
}

/// The token range of the return type of the fn whose name is at
/// `name_k`: skips the generic parameter list (minding the `->` inside
/// `FnOnce() -> R` bounds), the parameter parens, then spans from `->`
/// to the body `{`, a `;`, or a `where` clause. `None` if the fn has
/// no return type.
fn return_type_range(code: &CodeTokens<'_>, name_k: usize) -> Option<(usize, usize)> {
    let mut j = name_k + 1;
    if j < code.len() && code.tok(j).kind == TokenKind::Punct('<') {
        let mut depth = 1i32;
        j += 1;
        while depth > 0 {
            if j >= code.len() {
                return None;
            }
            match code.tok(j).kind {
                TokenKind::Punct('<') => depth += 1,
                TokenKind::Punct('>') => {
                    // `->` inside an `Fn…() -> R` bound is not a closer.
                    let arrow = code.tok(j - 1).kind == TokenKind::Punct('-')
                        && code.tok(j - 1).end == code.tok(j).start;
                    if !arrow {
                        depth -= 1;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    if j >= code.len() || code.tok(j).kind != TokenKind::Punct('(') {
        return None;
    }
    let close = code.matching(j)?;
    let arrow_dash = close + 1;
    if arrow_dash + 1 >= code.len()
        || code.tok(arrow_dash).kind != TokenKind::Punct('-')
        || code.tok(arrow_dash + 1).kind != TokenKind::Punct('>')
    {
        return None;
    }
    let start = arrow_dash + 2;
    let mut end = start;
    while end < code.len() {
        match code.tok(end).kind {
            TokenKind::Punct('{') | TokenKind::Punct(';') => break,
            TokenKind::Ident if code.text(end) == "where" => break,
            _ => end += 1,
        }
    }
    Some((start, end))
}

/// Whether any `#[…]` attribute block directly above the token at `k`
/// contains the identifier `name`.
fn preceding_attrs_have(code: &CodeTokens<'_>, k: usize, name: &str) -> bool {
    let mut j = k;
    while j >= 1 {
        // Expect `… # [ attr… ] <current>` — walk over one attribute.
        if code.tok(j - 1).kind != TokenKind::Punct(']') {
            return false;
        }
        let mut depth = 0i32;
        let mut open = j - 1;
        loop {
            match code.tok(open).kind {
                TokenKind::Punct(']') => depth += 1,
                TokenKind::Punct('[') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if open == 0 {
                return false;
            }
            open -= 1;
        }
        if open == 0 || code.tok(open - 1).kind != TokenKind::Punct('#') {
            return false;
        }
        if (open + 1..j - 1).any(|m| code.is_ident(m, name)) {
            return true;
        }
        j = open - 1;
    }
    false
}
