//! **L004 — registration is coverage.**
//!
//! Two registries in this repo silently grow: the mapping registry
//! (`Registry::builtin()`) and the service API (`enum Request`). Both
//! have paired exhaustiveness suites, and both have a failure mode
//! where a new entry compiles, ships, and is never exercised:
//!
//! * a map registered in `builtin()` that no equivalence suite names
//!   (the suites iterate `all_specs()` today — this lint keeps it that
//!   way, or forces an explicit mention if a suite ever enumerates by
//!   hand);
//! * a `Request` variant with no dispatch arm in `service.rs` (it
//!   would be caught by match exhaustiveness — unless dispatch grows a
//!   catch-all) or no case in the service equivalence suite;
//! * a `ServiceStats` field no test reads: struct fields have no
//!   exhaustiveness check at all, so an observability counter that is
//!   wired up but never asserted on rots silently.
//!
//! The lint cross-references the declaration sites against the suites
//! and reports each uncovered name at its registration, where the fix
//! (add the coverage) is decided.

use super::{CodeTokens, Lint};
use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::workspace::{SourceFile, Workspace};

/// Where `Registry::builtin()` lives.
const REGISTRY: &str = "crates/cfva-core/src/mapping/registry.rs";
/// The suites every builtin map name must reach.
const MAP_SUITES: &[&str] = &["tests/engine_agreement.rs", "tests/registry_equivalence.rs"];
/// Where the service API enums are declared.
const API: &str = "crates/cfva-serve/src/api.rs";
/// Files every `Request` variant must appear in (dispatch + suite).
const REQUEST_SITES: &[&str] = &[
    "crates/cfva-serve/src/service.rs",
    "crates/cfva-serve/tests/service_equivalence.rs",
];
/// Files every `Response` and `ServeError` variant must appear in: the
/// equivalence suite is the service's behavioural contract, so a
/// response or error shape nobody asserts on is a shape nobody checked
/// (`DeadlineExceeded` ships with recovery machinery that only tests
/// make real, and `Degraded`, which the service never produces, is
/// named there by the test that pins a full queue to `Overloaded`).
const OUTCOME_SITES: &[&str] = &["crates/cfva-serve/tests/service_equivalence.rs"];
/// Where `ServiceStats` is declared.
const SERVICE: &str = "crates/cfva-serve/src/service.rs";
/// Files every `ServiceStats` field must be read by: a stats field
/// nobody asserts on is a counter nobody checked.
const STATS_SITES: &[&str] = &["crates/cfva-serve/tests/service_equivalence.rs"];
/// Files every `Request`, `Response` and `ServeError` variant must
/// also reach now that the API crosses a socket: the wire codec
/// round-trip suite. A variant the codec suite never names is a
/// variant that can ship un-serializable (or silently lossy) — the
/// round trip is the wire's behavioural contract, exactly as the
/// equivalence suite is the service's.
const WIRE_SITES: &[&str] = &["crates/cfva-wire/tests/codec_roundtrip.rs"];

pub struct RegistrationIsCoverage;

impl Lint for RegistrationIsCoverage {
    fn code(&self) -> &'static str {
        "L004"
    }

    fn description(&self) -> &'static str {
        "every registered map name and Request variant reaches its equivalence suite"
    }

    fn run(&self, ws: &Workspace) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        check_map_names(ws, &mut diags);
        check_enum_variants(ws, "Request", REQUEST_SITES, &mut diags);
        check_enum_variants(ws, "Response", OUTCOME_SITES, &mut diags);
        check_enum_variants(ws, "ServeError", OUTCOME_SITES, &mut diags);
        check_enum_variants(ws, "Request", WIRE_SITES, &mut diags);
        check_enum_variants(ws, "Response", WIRE_SITES, &mut diags);
        check_enum_variants(ws, "ServeError", WIRE_SITES, &mut diags);
        check_struct_fields(ws, "ServiceStats", SERVICE, STATS_SITES, &mut diags);
        diags
    }
}

// ---------------------------------------------------------------------
// Builtin map names
// ---------------------------------------------------------------------

fn check_map_names(ws: &Workspace, diags: &mut Vec<Diagnostic>) {
    let Some(registry) = ws.file(REGISTRY) else {
        return;
    };
    let code = CodeTokens::new(registry);
    let names = builtin_names(&code);
    for suite_rel in MAP_SUITES {
        let Some(suite) = ws.file(suite_rel) else {
            continue;
        };
        if file_contains_ident(suite, "all_specs") {
            continue; // the suite iterates the registry — full coverage
        }
        for (name, k) in &names {
            if !file_mentions_map(suite, name) {
                diags.push(code.diag_at(
                    *k,
                    "L004",
                    format!(
                        "builtin map `{name}` is not exercised by {suite_rel} — add it \
                         (or iterate `all_specs()`)"
                    ),
                ));
            }
        }
    }
}

/// The map names registered in `fn builtin`: string literals inside its
/// body whose content is a bare `[a-z0-9-]+` name (coverage specs like
/// `"interleaved:m=3"` and message strings don't match).
fn builtin_names(code: &CodeTokens<'_>) -> Vec<(String, usize)> {
    let mut names = Vec::new();
    let Some((body_start, body_end)) = fn_body(code, "builtin") else {
        return names;
    };
    for k in body_start..body_end {
        if code.tok(k).kind != TokenKind::Str {
            continue;
        }
        let text = code.text(k);
        let content = &text[1..text.len() - 1];
        let is_name = !content.is_empty()
            && content
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-');
        if is_name {
            names.push((content.to_string(), k));
        }
    }
    names
}

/// The token range (exclusive of the braces) of `fn <name>`'s body.
fn fn_body(code: &CodeTokens<'_>, name: &str) -> Option<(usize, usize)> {
    for k in 0..code.len() {
        if k + 1 >= code.len() || !code.is_ident(k, "fn") || !code.is_ident(k + 1, name) {
            continue;
        }
        let mut j = k + 2;
        while j < code.len() && code.tok(j).kind != TokenKind::Punct('{') {
            j += 1;
        }
        let close = code.matching(j)?;
        return Some((j + 1, close));
    }
    None
}

fn file_contains_ident(file: &SourceFile, name: &str) -> bool {
    file.tokens
        .iter()
        .any(|t| t.kind == TokenKind::Ident && t.text(&file.text) == name)
}

/// Whether the suite names the map: a string literal equal to `name`
/// or a spec string starting `name:`.
fn file_mentions_map(file: &SourceFile, name: &str) -> bool {
    file.tokens.iter().any(|t| {
        if t.kind != TokenKind::Str {
            return false;
        }
        let text = t.text(&file.text);
        let content = &text[1..text.len() - 1];
        content == name || content.starts_with(&format!("{name}:"))
    })
}

// ---------------------------------------------------------------------
// Service API enum variants
// ---------------------------------------------------------------------

fn check_enum_variants(
    ws: &Workspace,
    enum_name: &str,
    sites: &[&str],
    diags: &mut Vec<Diagnostic>,
) {
    let Some(api) = ws.file(API) else {
        return;
    };
    let code = CodeTokens::new(api);
    let variants = enum_variants(&code, enum_name);
    for site_rel in sites {
        let Some(site) = ws.file(site_rel) else {
            continue;
        };
        for (variant, k) in &variants {
            if !file_mentions_variant(site, enum_name, variant) {
                diags.push(code.diag_at(
                    *k,
                    "L004",
                    format!("`{enum_name}::{variant}` never appears in {site_rel}"),
                ));
            }
        }
    }
}

/// The variant idents of `enum <name>`: identifiers at brace depth 1
/// of the enum body that directly follow `{`, `,`, or a `]` closing an
/// attribute.
fn enum_variants(code: &CodeTokens<'_>, name: &str) -> Vec<(String, usize)> {
    let mut variants = Vec::new();
    let mut start = None;
    for k in 0..code.len() {
        if k + 1 < code.len() && code.is_ident(k, "enum") && code.is_ident(k + 1, name) {
            let mut j = k + 2;
            while j < code.len() && code.tok(j).kind != TokenKind::Punct('{') {
                j += 1;
            }
            start = Some(j);
            break;
        }
    }
    let Some(open) = start else {
        return variants;
    };
    let Some(close) = code.matching(open) else {
        return variants;
    };
    let mut depth = 0i32;
    for k in open..close {
        match code.tok(k).kind {
            TokenKind::Punct('{') | TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct('}') | TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
            TokenKind::Ident if depth == 1 => {
                let starts_variant = matches!(
                    code.tok(k - 1).kind,
                    TokenKind::Punct('{') | TokenKind::Punct(',') | TokenKind::Punct(']')
                );
                if starts_variant {
                    variants.push((code.text(k).to_string(), k));
                }
            }
            _ => {}
        }
    }
    variants
}

// ---------------------------------------------------------------------
// Stats struct fields
// ---------------------------------------------------------------------

fn check_struct_fields(
    ws: &Workspace,
    struct_name: &str,
    decl_rel: &str,
    sites: &[&str],
    diags: &mut Vec<Diagnostic>,
) {
    let Some(decl) = ws.file(decl_rel) else {
        return;
    };
    let code = CodeTokens::new(decl);
    let fields = struct_fields(&code, struct_name);
    for site_rel in sites {
        let Some(site) = ws.file(site_rel) else {
            continue;
        };
        for (field, k) in &fields {
            if !file_contains_ident(site, field) {
                diags.push(code.diag_at(
                    *k,
                    "L004",
                    format!(
                        "`{struct_name}.{field}` is never read by {site_rel} — assert on the \
                         counter, or it can rot silently"
                    ),
                ));
            }
        }
    }
}

/// The field idents of `struct <name>`: identifiers at brace depth 1 of
/// the struct body directly followed by a single `:` (not a `::` path
/// separator).
fn struct_fields(code: &CodeTokens<'_>, name: &str) -> Vec<(String, usize)> {
    let mut fields = Vec::new();
    let mut start = None;
    for k in 0..code.len() {
        if k + 1 < code.len() && code.is_ident(k, "struct") && code.is_ident(k + 1, name) {
            let mut j = k + 2;
            while j < code.len() && code.tok(j).kind != TokenKind::Punct('{') {
                j += 1;
            }
            start = Some(j);
            break;
        }
    }
    let Some(open) = start else {
        return fields;
    };
    let Some(close) = code.matching(open) else {
        return fields;
    };
    let mut depth = 0i32;
    for k in open..close {
        match code.tok(k).kind {
            TokenKind::Punct('{') | TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct('}') | TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
            TokenKind::Ident if depth == 1 => {
                let is_field = k + 1 < close
                    && code.tok(k + 1).kind == TokenKind::Punct(':')
                    && !code.is_path_sep(k + 1);
                if is_field {
                    fields.push((code.text(k).to_string(), k));
                }
            }
            _ => {}
        }
    }
    fields
}

/// Whether the file contains the path `Enum::Variant`.
fn file_mentions_variant(file: &SourceFile, enum_name: &str, variant: &str) -> bool {
    let code = CodeTokens::new(file);
    (0..code.len()).any(|k| {
        code.is_ident(k, enum_name)
            && code.is_path_sep(k + 1)
            && k + 3 < code.len()
            && code.is_ident(k + 3, variant)
    })
}
