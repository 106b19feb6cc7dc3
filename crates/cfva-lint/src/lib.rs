//! `cfva-lint` — the workspace's own static-analysis pass.
//!
//! `rustc` and clippy enforce language-level invariants; this crate
//! enforces the *repo-specific* ones — the rules this codebase's
//! correctness argument actually leans on, written down as checks
//! instead of review lore:
//!
//! | code | invariant |
//! |------|-----------|
//! | L001 | `cfva-serve` locks are **leaves**: no two lock guards live at once |
//! | L002 | library paths don't panic: no `unwrap`/`expect`/`panic!`/computed index |
//! | L003 | engine/planner/mapping code is deterministic: no wall-clock, sleep, or ambient rand |
//! | L004 | registration is coverage: builtin maps and `Request` variants reach their suites |
//! | L005 | crate roots `forbid(unsafe_code)`; handle-returning `pub fn`s are `#[must_use]` |
//!
//! (`L000` reports malformed suppression comments and is itself
//! unsuppressible.)
//!
//! # The lock hierarchy (L001)
//!
//! The serving layer's locks — scheduler (`sched`), worker handles
//! (`handles`), spec table (`specs`), result-cache shards
//! (`shard`/`shards`) — form a deliberately *flat* hierarchy: every
//! lock is a leaf, and holding two at once is a bug by definition.
//! Jobs run and resolve their tickets (over one-shot channels) after
//! the scheduler lock is released; cache population happens outside
//! it. The static check lives in
//! [`lints::lock_order` (L001)](lints); the matching dynamic check is
//! `cfva-serve`'s debug-build lock-class stack, which panics on the
//! same inversion at runtime.
//!
//! # Suppressions
//!
//! A finding is silenced in place with a mandatory reason:
//!
//! ```text
//! let g = self.sched.lock().expect("poisoned"); // cfva-lint: allow(L002, reason = "poisoning is unrecoverable")
//! ```
//!
//! See [`suppress`] for the grammar, and the README's "Static
//! analysis" section for the workflow.
//!
//! # Design
//!
//! The front end is a hand-rolled lossless lexer ([`lexer`]) — no
//! `syn`, no dependencies — because every lint here needs only token
//! streams plus light structure (brace depth, attribute blocks, test
//! regions), and a lexer that *never* misreads strings, nested block
//! comments or raw-string fences is both sufficient and fast. Each
//! lint is a [`lints::Lint`] implementation over a pre-lexed
//! [`workspace::Workspace`]; fixtures under `tests/fixtures/` pin the
//! expected findings for every lint and for the suppression machinery.

#![forbid(unsafe_code)]

pub mod diag;
pub mod lexer;
pub mod lints;
pub mod suppress;
pub mod workspace;

use std::path::Path;

use diag::Diagnostic;

/// Loads the workspace rooted at `root` and runs every registered
/// lint, returning the surviving (unsuppressed) diagnostics in
/// reporting order.
pub fn check_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let codes = lints::known_codes();
    let ws = workspace::load(root, &codes)?;
    Ok(lints::run_all(&ws))
}
