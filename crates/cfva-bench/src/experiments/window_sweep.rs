//! Theorems 1 and 3: exhaustive simulation of the conflict-free
//! windows.

use cfva_core::mapping::{XorMatched, XorUnmatched};
use cfva_core::plan::{Planner, Strategy};
use cfva_core::{Stride, VectorSpec};
use cfva_memsim::{MemConfig, MemorySystem};

use crate::runner::BatchRunner;
use crate::table::Table;

const SIGMAS: [i64; 4] = [1, 3, 5, 7];
const BASES: [u64; 5] = [0, 1, 16, 37, 1000];

/// For every family, try all σ/base samples through one session's
/// planner: returns `(plannable, all conflict-free at T+L+1)`. This
/// experiment *verifies* the windows, so each plan runs on the cycle
/// oracle, not on the route's conflict-free shortcut.
fn probe_family(session: &BatchRunner, x: u32, len: u64) -> (bool, bool) {
    let floor = session.mem().t_cycles() + len + 1;
    let mut oracle = MemorySystem::new(session.mem());
    let mut plannable = true;
    let mut all_cf = true;
    for sigma in SIGMAS {
        for base in BASES {
            let stride = Stride::from_parts(sigma, x).expect("odd sigma");
            let vec = VectorSpec::with_stride(base.into(), stride, len).expect("valid");
            match session.planner().plan(&vec, Strategy::ConflictFree) {
                Ok(plan) => {
                    let stats = oracle.run_oracle(&plan);
                    if stats.latency != floor || stats.conflicts != 0 {
                        all_cf = false;
                    }
                }
                Err(_) => {
                    plannable = false;
                    all_cf = false;
                }
            }
        }
    }
    (plannable, all_cf)
}

/// Probes families `0..=max_x` in parallel — one [`BatchRunner`]
/// session per worker — and reports per-family conflict-freedom.
fn probe_windows(
    make_session: impl Fn() -> BatchRunner + Sync,
    max_x: u32,
    len: u64,
) -> Vec<(u32, bool)> {
    let families: Vec<u32> = (0..=max_x).collect();
    BatchRunner::sweep(make_session, &families, |session, &x| {
        let (_, cf) = probe_family(session, x, len);
        (x, cf)
    })
}

/// Regenerates the Theorem 1 / Theorem 3 windows: matched `L=128, T=8,
/// s=4` must be conflict free exactly for `x ∈ [0,4]`; unmatched
/// `M=64, T=8, s=4, y=9` exactly for `x ∈ [0,9]` (Sections 3.3, 4.3).
pub fn window() -> String {
    let len = 128u64;

    // Matched: t = 3, s = 4 (recommended for λ = 7).
    let mut tm = Table::new(&["x", "conflict-free (sim)", "paper window [0,4]"]);
    let mut matched_ok = true;
    for (x, cf) in probe_windows(
        || {
            BatchRunner::new(
                Planner::matched(XorMatched::new(3, 4).expect("s >= t")),
                MemConfig::new(3, 3).expect("valid"),
            )
        },
        7,
        len,
    ) {
        let expected = x <= 4;
        if cf != expected {
            matched_ok = false;
        }
        tm.row_owned(vec![x.to_string(), cf.to_string(), expected.to_string()]);
    }

    // Unmatched: t = 3, m = 6, s = 4, y = 9.
    let mut tu = Table::new(&["x", "conflict-free (sim)", "paper window [0,9]"]);
    let mut unmatched_ok = true;
    for (x, cf) in probe_windows(
        || {
            BatchRunner::new(
                Planner::unmatched(XorUnmatched::new(3, 4, 9).expect("valid")),
                MemConfig::new(6, 3).expect("valid"),
            )
        },
        12,
        len,
    ) {
        let expected = x <= 9;
        if cf != expected {
            unmatched_ok = false;
        }
        tu.row_owned(vec![x.to_string(), cf.to_string(), expected.to_string()]);
    }

    format!(
        "Conflict-free windows, verified by cycle simulation over σ ∈ {SIGMAS:?}, A1 ∈ {BASES:?}\n\n\
         Matched memory: L=128, M=T=8, s=4 (Theorem 1: x ∈ [0, 4])\n\n{}\n\
         Window matches Theorem 1: {}\n\n\
         Unmatched memory: L=128, T=8, M=64, s=4, y=9 (Theorem 3: x ∈ [0, 9])\n\n{}\n\
         Window matches Theorem 3: {}\n",
        tm.render(),
        if matched_ok { "YES" } else { "NO" },
        tu.render(),
        if unmatched_ok { "YES" } else { "NO" },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_match_theorems() {
        let r = window();
        assert!(r.contains("Window matches Theorem 1: YES"), "{r}");
        assert!(r.contains("Window matches Theorem 3: YES"), "{r}");
    }
}
